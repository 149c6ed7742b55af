/**
 * @file
 * Unit tests for the LPDDR3 memory controller model.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace vip
{
namespace
{

using test::PlatformFixture;

class MemoryTest : public PlatformFixture
{
  protected:
    /**
     * Issue a request directly to the controller (bypassing the SA)
     * and return its service latency.
     */
    Tick
    access(Addr addr, std::uint32_t bytes, bool write)
    {
        Tick issued = sys->curTick();
        Tick done = 0;
        MemRequest req;
        req.addr = addr;
        req.bytes = bytes;
        req.write = write;
        req.onComplete = [&done, this] { done = sys->curTick(); };
        mem->access(std::move(req));
        run();
        return done - issued;
    }
};

TEST_F(MemoryTest, IdealModeHasFixedLatency)
{
    DramConfig cfg = testDram();
    cfg.idealLatency = fromNs(10);
    buildPlatform(/*ideal=*/true, cfg);
    EXPECT_EQ(access(0, 1024, false), fromNs(10));
    EXPECT_EQ(access(123456, 64, true), fromNs(10));
}

TEST_F(MemoryTest, FirstAccessPaysActivatePlusCasPlusBurst)
{
    // Row miss on a closed bank: tRCD + tCL + bytes/bw.
    DramConfig cfg = testDram(); // 12/12/12 ns, 4 B/ns per channel
    buildPlatform(false, cfg);
    Tick expect = fromNs(12 + 12) + fromNs(1024 / 4.0);
    EXPECT_EQ(access(0, 1024, false), expect);
    EXPECT_EQ(mem->rowMisses(), 1u);
    EXPECT_EQ(mem->rowHits(), 0u);
}

TEST_F(MemoryTest, RowHitSkipsActivate)
{
    buildPlatform(false);
    access(0, 1024, false); // opens the row
    // Same row, same bank, same channel: only CAS + burst.
    // Channel stride is 1 KB x 4 channels, bank stride 4 KB x 8
    // banks, so +32 KB stays on channel 0 / bank 0 / row 0.
    Tick second = access(32768, 1024, false);
    EXPECT_EQ(second, fromNs(12) + fromNs(1024 / 4.0));
    EXPECT_EQ(mem->rowHits(), 1u);
}

TEST_F(MemoryTest, ConflictingRowPaysPrecharge)
{
    DramConfig cfg = testDram();
    buildPlatform(false, cfg);
    access(0, 1024, false); // opens a row
    // Same bank, different row: tRP + tRCD + tCL + burst.
    Addr far = Addr(cfg.rowBytes) * cfg.channels *
               cfg.banksPerRank * 8;
    Tick second = access(far, 1024, false);
    EXPECT_EQ(second, fromNs(12 + 12 + 12) + fromNs(1024 / 4.0));
    EXPECT_EQ(mem->rowMisses(), 2u);
}

TEST_F(MemoryTest, ChannelsServiceInParallel)
{
    // Two 1 KB requests on different channels finish at the same
    // time; on the same channel they serialize.
    buildPlatform(false);
    Tick t_par = 0;
    int done = 0;
    for (int i = 0; i < 2; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(i) * 1024; // distinct channels
        req.bytes = 1024;
        req.onComplete = [&] {
            ++done;
            t_par = sys->curTick();
        };
        mem->access(std::move(req));
    }
    run();
    EXPECT_EQ(done, 2);
    Tick one = fromNs(24) + fromNs(256);
    EXPECT_EQ(t_par, one); // parallel channels: same as single access

    buildPlatform(false);
    done = 0;
    Tick t_ser = 0;
    for (int i = 0; i < 2; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(i) * 4096; // same channel (4ch)
        req.bytes = 1024;
        req.onComplete = [&] {
            ++done;
            t_ser = sys->curTick();
        };
        mem->access(std::move(req));
    }
    run();
    EXPECT_EQ(done, 2);
    EXPECT_GT(t_ser, one);
}

TEST_F(MemoryTest, FrFcfsPrefersRowHits)
{
    // Queue: [missA-row1, hitB-row0] while row0 is open; the hit
    // should be served first.
    buildPlatform(false);
    // Open row 0 on channel 0 / bank 0.
    access(0, 64, false);

    std::vector<int> order;
    DramConfig cfg;
    Addr conflict = Addr(cfg.rowBytes) * cfg.channels *
                    cfg.banksPerRank * 8; // same bank, other row
    MemRequest a;
    a.addr = conflict;
    a.bytes = 64;
    a.onComplete = [&] { order.push_back(1); };
    MemRequest b;
    b.addr = 64; // row 0, open
    b.bytes = 64;
    b.onComplete = [&] { order.push_back(2); };
    // Occupy the channel so both queue behind an in-flight request.
    MemRequest busy;
    busy.addr = 128;
    busy.bytes = 1024;
    mem->access(std::move(busy));
    mem->access(std::move(a));
    mem->access(std::move(b));
    run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2); // row hit first (FR-FCFS)
    EXPECT_EQ(order[1], 1);
}

TEST_F(MemoryTest, CountsBytesAndRequests)
{
    buildPlatform(false);
    access(0, 1024, false);
    access(8192, 512, true);
    EXPECT_EQ(mem->bytesRead(), 1024u);
    EXPECT_EQ(mem->bytesWritten(), 512u);
}

TEST_F(MemoryTest, ZeroByteRequestPanics)
{
    buildPlatform(false);
    MemRequest req;
    req.addr = 0;
    req.bytes = 0;
    EXPECT_THROW(mem->access(std::move(req)), SimPanic);
}

TEST_F(MemoryTest, QueueFullReflectsDepth)
{
    DramConfig cfg = testDram();
    cfg.queueDepth = 4;
    buildPlatform(false, cfg);
    EXPECT_FALSE(mem->queueFull(0));
    for (int i = 0; i < 8; ++i) {
        MemRequest req;
        req.addr = 0; // all on channel 0
        req.bytes = 64;
        mem->access(std::move(req));
    }
    EXPECT_TRUE(mem->queueFull(0));
    EXPECT_FALSE(mem->queueFull(1024)); // other channel empty
    run();
    EXPECT_FALSE(mem->queueFull(0));
}

TEST_F(MemoryTest, AverageBandwidthMatchesTraffic)
{
    buildPlatform(false);
    // Move 4 MB; at 16 GB/s peak this takes ~0.26 ms of burst time.
    const int n = 4096;
    int done = 0;
    Tick last = 0;
    for (int i = 0; i < n; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(i) * 1024;
        req.bytes = 1024;
        req.onComplete = [&] {
            ++done;
            last = sys->curTick();
        };
        mem->access(std::move(req));
    }
    run();
    EXPECT_EQ(done, n);
    double gb = static_cast<double>(n) * 1024;
    double expect = gb / static_cast<double>(sys->curTick()) * 1000.0;
    EXPECT_NEAR(mem->averageBandwidthGBps(), expect, 1e-6);
    // Saturating traffic drains near peak (16 GB/s) modulo
    // activate/CAS overheads, measured over the actual busy window.
    double busyGBps = gb / static_cast<double>(last) * 1000.0;
    EXPECT_GT(busyGBps, 10.0);
}

TEST_F(MemoryTest, BandwidthHistogramPopulatesUnderLoad)
{
    DramConfig cfg = testDram();
    cfg.bwWindow = fromUs(10);
    buildPlatform(false, cfg);
    for (int i = 0; i < 2048; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(i) * 1024;
        req.bytes = 1024;
        mem->access(std::move(req));
    }
    run(fromUs(200));
    EXPECT_GT(mem->bwHistogram().total(), 0u);
    EXPECT_GT(mem->fractionOfTimeAbove(0.5), 0.0);
    EXPECT_LE(mem->fractionOfTimeAbove(0.0), 1.0);
}

TEST_F(MemoryTest, DramEnergyAccrues)
{
    buildPlatform(false);
    access(0, 1024, false);
    EXPECT_GT(ledger->categoryNj("dram"), 0.0);
}

TEST_F(MemoryTest, StripedRequestCompletesOnceAfterLastStripe)
{
    // A 4 KB read stripes over all four channels.  Channel 2 is busy
    // with a 1 KB read of the same row, so that stripe finishes one
    // row hit after it; the other three finish at the first burst.
    DramConfig cfg = testDram();
    buildPlatform(false, cfg);
    MemRequest busy;
    busy.addr = 2 * cfg.interleaveBytes;
    busy.bytes = cfg.interleaveBytes;
    mem->access(std::move(busy));

    int fired = 0;
    Tick at = 0;
    MemRequest req;
    req.addr = 0;
    req.bytes = 4 * cfg.interleaveBytes;
    req.onComplete = [&] {
        ++fired;
        at = sys->curTick();
    };
    mem->access(std::move(req));
    run();

    const Tick burst = fromNs(cfg.interleaveBytes / cfg.channelBytesPerNs);
    const Tick miss = cfg.tRCD + cfg.tCL + burst;
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(at, miss + cfg.tCL + burst);
    EXPECT_EQ(mem->burstsCompleted(), 5u);
    EXPECT_EQ(mem->inFlight(), 0u);
}

TEST_F(MemoryTest, CompletionMayIssueMoreAccesses)
{
    // The first completion issues 64 transactions (1-4 stripes each)
    // while its own pool slot is being recycled, so the completion
    // pool grows under a running completion.  Each fires exactly once,
    // in either memory mode.
    for (bool ideal : {false, true}) {
        buildPlatform(ideal);
        std::vector<int> fired(64, 0);
        int first = 0;
        MemRequest req;
        req.addr = 0;
        req.bytes = 4096;
        req.onComplete = [&] {
            ++first;
            for (std::uint32_t i = 0; i < fired.size(); ++i) {
                MemRequest more;
                more.addr = Addr(i) * 8192;
                more.bytes = (i % 4 + 1) * 1024;
                more.write = i % 2 == 1;
                more.onComplete = [&fired, i] { ++fired[i]; };
                mem->access(std::move(more));
            }
        };
        mem->access(std::move(req));
        run();
        EXPECT_EQ(first, 1) << "ideal=" << ideal;
        for (std::size_t i = 0; i < fired.size(); ++i)
            EXPECT_EQ(fired[i], 1) << "access " << i << " ideal=" << ideal;
        EXPECT_TRUE(mem->quiescent());
    }
}


class MemoryLowPowerTest : public PlatformFixture
{
  protected:
    void
    SetUp() override
    {
        DramConfig cfg;
        cfg.enableLowPower = true;
        cfg.powerDownDelay = fromUs(3);
        cfg.selfRefreshDelay = fromUs(150);
        buildPlatform(false, cfg);
    }

    Tick
    latency(Addr addr)
    {
        Tick issued = sys->curTick();
        Tick done = 0;
        MemRequest req;
        req.addr = addr;
        req.bytes = 64;
        req.onComplete = [&done, this] { done = sys->curTick(); };
        mem->access(std::move(req));
        run(fromUs(2)); // just past the access; stays Active
        return done - issued;
    }
};

TEST_F(MemoryLowPowerTest, EntersPowerDownAfterIdleDelay)
{
    MemRequest req;
    req.addr = 0;
    req.bytes = 64;
    mem->access(std::move(req));
    run(fromUs(1)); // request done, idle < powerDownDelay
    EXPECT_EQ(mem->lpState(), MemoryController::LpState::Active);
    run(fromUs(10)); // idle > powerDownDelay
    EXPECT_EQ(mem->lpState(), MemoryController::LpState::PowerDown);
}

TEST_F(MemoryLowPowerTest, DeepensIntoSelfRefresh)
{
    latency(0);
    run(fromMs(1));
    EXPECT_EQ(mem->lpState(), MemoryController::LpState::SelfRefresh);
    EXPECT_GT(mem->powerDownTicks(), 0u);
    EXPECT_GE(mem->lpEntries(), 2u);
}

TEST_F(MemoryLowPowerTest, PowerDownExitChargesTxp)
{
    Tick awake = latency(0);
    run(fromUs(10)); // -> power-down
    DramConfig cfg;
    // Row is still open across power-down: same access now pays the
    // exit penalty but hits the row.
    Tick woken = latency(64);
    EXPECT_EQ(woken, awake - fromNs(12) + cfg.tXP);
    EXPECT_EQ(mem->lpState(), MemoryController::LpState::Active);
}

TEST_F(MemoryLowPowerTest, SelfRefreshExitClosesRowsAndChargesTxs)
{
    Tick first = latency(0);
    run(fromMs(1)); // -> self-refresh
    // Same address: the row was closed by self-refresh, so the access
    // pays activate again plus the tXS exit penalty.
    DramConfig cfg;
    Tick woken = latency(64);
    EXPECT_EQ(woken, first + cfg.tXS);
}

TEST_F(MemoryLowPowerTest, BackgroundEnergyDropsWhileAsleep)
{
    // Compare ~100 ms of mostly-idle DRAM against the always-active
    // background energy: the sleep states must save most of it.
    latency(0);
    run(fromMs(100));
    ledger->closeAll(sys->curTick());
    DramConfig cfg;
    double always = cfg.power.backgroundWattsPerChannel *
                    cfg.channels * 0.1 * 1e9; // nJ over 100 ms
    EXPECT_LT(ledger->categoryNj("dram"), 0.3 * always);
}

TEST_F(MemoryLowPowerTest, TrafficKeepsDramAwake)
{
    // Requests every 1 us (below the power-down delay) must keep the
    // device in Active the whole time.
    for (int i = 0; i < 100; ++i) {
        sys->eventq().schedule(fromUs(i), [this, i] {
            MemRequest req;
            req.addr = static_cast<Addr>(i) * 64;
            req.bytes = 64;
            mem->access(std::move(req));
        });
    }
    run(fromUs(100));
    EXPECT_EQ(mem->powerDownTicks(), 0u);
    EXPECT_EQ(mem->lpState(), MemoryController::LpState::Active);
}

} // namespace
} // namespace vip
