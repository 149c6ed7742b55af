/**
 * @file
 * Unit tests for the System Agent interconnect model.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace vip
{
namespace
{

using test::PlatformFixture;

class SaTest : public PlatformFixture
{
};

TEST_F(SaTest, PeerTransferTakesBandwidthPlusHop)
{
    SaConfig cfg;
    cfg.bytesPerNs = 32.0;
    cfg.hopLatency = fromNs(40);
    buildPlatform(true, DramConfig{}, cfg);

    Tick done = 0;
    sa->peerTransfer(3200, [&] { done = sys->curTick(); });
    run();
    EXPECT_EQ(done, fromNs(3200 / 32.0) + fromNs(40));
    EXPECT_EQ(sa->peerBytes(), 3200u);
}

TEST_F(SaTest, TransfersSerializeOnTheLink)
{
    SaConfig cfg;
    cfg.bytesPerNs = 32.0;
    cfg.hopLatency = 0;
    buildPlatform(true, DramConfig{}, cfg);

    Tick first = 0, second = 0;
    sa->peerTransfer(3200, [&] { first = sys->curTick(); });
    sa->peerTransfer(3200, [&] { second = sys->curTick(); });
    run();
    EXPECT_EQ(first, fromNs(100));
    EXPECT_EQ(second, fromNs(200)); // queued behind the first
}

TEST_F(SaTest, SignalsHaveLatencyButNoOccupancy)
{
    SaConfig cfg;
    cfg.signalLatency = fromNs(20);
    buildPlatform(true, DramConfig{}, cfg);

    Tick a = 0, b = 0;
    sa->signal([&] { a = sys->curTick(); });
    sa->signal([&] { b = sys->curTick(); });
    run();
    EXPECT_EQ(a, fromNs(20));
    EXPECT_EQ(b, fromNs(20)); // no serialization
    EXPECT_EQ(sa->signalsSent(), 2u);
    EXPECT_EQ(sa->bytesMoved(), 0u);
}

TEST_F(SaTest, MemoryAccessRoutesThroughDram)
{
    buildPlatform(/*ideal=*/true);
    Tick done = 0;
    MemRequest req;
    req.addr = 0;
    req.bytes = 1024;
    req.onComplete = [&] { done = sys->curTick(); };
    sa->memoryAccess(std::move(req));
    run();
    // SA occupancy + hop + ideal DRAM latency.
    SaConfig sc;
    DramConfig dc;
    Tick expect = fromNs(1024 / sc.bytesPerNs) + sc.hopLatency +
                  dc.idealLatency;
    EXPECT_EQ(done, expect);
    EXPECT_EQ(mem->bytesRead(), 1024u);
}

TEST_F(SaTest, MemoryAccessSurvivesTransferRetries)
{
    // Every crossing fails its CRC until the retry budget (3) is
    // spent: the parked request crosses the link 4 times, then
    // reaches DRAM once and completes once.
    FaultInjector faults(FaultPlan::parse("xfer=1,xfer-retries=3"));
    SystemAgent faulty(*sys, "t.sa.faulty", SaConfig{}, *mem, *ledger,
                       &faults);
    const std::uint32_t bytes = 4096;
    int done = 0;
    MemRequest req;
    req.addr = 0;
    req.bytes = bytes;
    req.onComplete = [&] { ++done; };
    faulty.memoryAccess(std::move(req));
    run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(faulty.transferRetries(), 3u);
    EXPECT_EQ(faulty.bytesMoved(), 4u * bytes);
    EXPECT_EQ(faulty.bytesRetransmitted(), 3u * bytes);
    EXPECT_EQ(faulty.bytesDelivered(), bytes);
    EXPECT_EQ(mem->bytesRead(), bytes);
    EXPECT_EQ(mem->burstsCompleted(), bytes / mem->config().interleaveBytes);
}

TEST_F(SaTest, UtilizationReflectsBusyTime)
{
    SaConfig cfg;
    cfg.bytesPerNs = 1.0; // slow link
    cfg.hopLatency = 0;
    buildPlatform(true, DramConfig{}, cfg);
    sa->peerTransfer(1000, [] {});
    run(fromNs(2000));
    EXPECT_NEAR(sa->utilization(), 0.5, 0.01);
}

TEST_F(SaTest, EnergyPerByteAccrues)
{
    buildPlatform(true);
    double before = ledger->categoryNj("sa");
    sa->peerTransfer(1_MiB, [] {});
    run();
    ledger->closeAll(sys->curTick());
    SaConfig sc;
    EXPECT_GE(ledger->categoryNj("sa") - before,
              sc.power.energyPerByteNj * 1_MiB);
}

} // namespace
} // namespace vip
