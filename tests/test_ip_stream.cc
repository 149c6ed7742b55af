/**
 * @file
 * Unit tests for IpCore in stream (chained) mode: lanes, feeds,
 * forwarding, credits, scheduling policies and switch granularity.
 */

#include <gtest/gtest.h>

#include "ip/ip_core.hh"
#include "sim/audit.hh"
#include "test_util.hh"

namespace vip
{
namespace
{

using test::PlatformFixture;

class IpStreamTest : public PlatformFixture
{
  protected:
    void
    SetUp() override
    {
        buildPlatform(/*ideal_memory=*/true);
    }

    IpCore &
    makeIp(const std::string &name, IpParams p)
    {
        ips.push_back(
            std::make_unique<IpCore>(*sys, name, p, *sa, *ledger));
        return *ips.back();
    }

    static IpParams
    fastParams(IpKind kind = IpKind::VD, std::uint32_t lanes = 2)
    {
        IpParams p = defaultIpParams(kind);
        p.clockHz = 1e9;
        p.bytesPerCycle = 4.0;
        p.numLanes = lanes;
        p.laneBytes = 2048;
        p.subframeBytes = 1024;
        return p;
    }

    /** Build a 2-stage chain PROD -> SINK on fresh lanes. */
    struct MiniChain
    {
        IpCore *prod;
        IpCore *sink;
        int prodLane;
        int sinkLane;
    };

    MiniChain
    makeChain(IpParams pp, IpParams sp,
              IpCore::FrameExitFn on_exit = nullptr)
    {
        auto &prod = makeIp("t.prod" + std::to_string(ips.size()), pp);
        auto &sink = makeIp("t.sink" + std::to_string(ips.size()), sp);
        int pl = prod.bindLane(1);
        int sl = sink.bindLane(1);
        EXPECT_GE(pl, 0);
        EXPECT_GE(sl, 0);
        prod.connectLane(pl, &sink, sl);
        sink.makeLaneSink(sl, std::move(on_exit));
        return {&prod, &sink, pl, sl};
    }

    /** Announce + feed one frame through a chain. */
    void
    sendFrame(MiniChain &c, std::uint64_t id, std::uint64_t in_bytes,
              std::uint64_t out_bytes, Tick deadline = MaxTick,
              bool txn_end = true)
    {
        c.prod->announceFrame(c.prodLane, id, in_bytes, out_bytes,
                              deadline, txn_end);
        c.sink->announceFrame(c.sinkLane, id, out_bytes, 0, deadline,
                              txn_end);
        c.prod->feedFrame(c.prodLane, id, in_bytes, 0, false);
    }

    /**
     * Issue @p left reads, one after another, to DRAM channel 0,
     * bank 0, each to a new row (a row conflict every time): a
     * backlog that delays whatever else lands on that channel.
     */
    void
    hammerChannel0(int left)
    {
        if (left == 0)
            return;
        // 128 KiB spans 4 channels x 8 banks x 4 KiB rows, so every
        // multiple of it is channel 0, bank 0, and its own row.
        MemRequest req;
        req.addr = (64 + hammerRow++) * 128_KiB;
        req.bytes = 1024;
        req.requesterId = 99;
        req.onComplete = [this, left] { hammerChannel0(left - 1); };
        sa->memoryAccess(std::move(req));
    }

    std::vector<std::unique_ptr<IpCore>> ips;
    std::uint64_t hammerRow = 0;
};

TEST_F(IpStreamTest, LaneBindingLifecycle)
{
    auto &ip = makeIp("t.ip", fastParams(IpKind::VD, 2));
    int a = ip.bindLane(1);
    int b = ip.bindLane(2);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(ip.boundLanes(), 2u);
    EXPECT_EQ(ip.bindLane(3), -1); // exhausted
    ip.unbindLane(a);
    EXPECT_EQ(ip.boundLanes(), 1u);
    EXPECT_EQ(ip.bindLane(3), 0); // reuses freed lane
}

TEST_F(IpStreamTest, UnbindingActiveLanePanics)
{
    auto &ip = makeIp("t.ip", fastParams());
    int l = ip.bindLane(1);
    ip.announceFrame(l, 0, 4096, 0, MaxTick, true);
    ip.makeLaneSink(l, nullptr);
    ip.feedFrame(l, 0, 4096, 0, false);
    EXPECT_THROW(ip.unbindLane(l), SimPanic);
    run();
    EXPECT_NO_THROW(ip.unbindLane(l));
}

TEST_F(IpStreamTest, FrameFlowsThroughChainToSink)
{
    std::vector<std::pair<FlowId, std::uint64_t>> exits;
    auto chain = makeChain(fastParams(), fastParams(IpKind::DC),
                           [&](FlowId f, std::uint64_t k) {
                               exits.emplace_back(f, k);
                           });
    sendFrame(chain, 7, 64_KiB, 128_KiB);
    run();
    ASSERT_EQ(exits.size(), 1u);
    EXPECT_EQ(exits[0].first, 1u);
    EXPECT_EQ(exits[0].second, 7u);
    EXPECT_EQ(chain.prod->framesExited(), 0u);
    EXPECT_EQ(chain.sink->framesExited(), 1u);
}

TEST_F(IpStreamTest, DataBypassesDram)
{
    auto chain = makeChain(fastParams(), fastParams(IpKind::DC));
    sendFrame(chain, 0, 64_KiB, 64_KiB);
    run();
    // Only the head feed touches memory; the hop is peer traffic.
    EXPECT_EQ(mem->bytesRead(), 64_KiB + 0u);
    EXPECT_EQ(mem->bytesWritten(), 0u);
    EXPECT_GE(sa->peerBytes(), 64_KiB + 0u);
}

TEST_F(IpStreamTest, OutputScalingDeliversExpandedBytes)
{
    // Producer expands 16 KiB input into 64 KiB output (like a video
    // decoder): the sink must consume ~64 KiB.
    auto chain = makeChain(fastParams(), fastParams(IpKind::DC));
    sendFrame(chain, 0, 16_KiB, 64_KiB);
    run();
    EXPECT_NEAR(static_cast<double>(sa->peerBytes()),
                static_cast<double>(64_KiB), 2048.0);
}

TEST_F(IpStreamTest, CompressionDeliversReducedBytes)
{
    // Encoder-style 64 KiB -> 4 KiB.
    auto chain = makeChain(fastParams(), fastParams(IpKind::NW));
    sendFrame(chain, 0, 64_KiB, 4_KiB);
    run();
    EXPECT_NEAR(static_cast<double>(sa->peerBytes()),
                static_cast<double>(4_KiB), 1100.0);
}

TEST_F(IpStreamTest, FramesExitInOrder)
{
    std::vector<std::uint64_t> exits;
    auto chain = makeChain(fastParams(), fastParams(IpKind::DC),
                           [&](FlowId, std::uint64_t k) {
                               exits.push_back(k);
                           });
    for (std::uint64_t k = 0; k < 5; ++k)
        sendFrame(chain, k, 32_KiB, 32_KiB);
    run();
    ASSERT_EQ(exits.size(), 5u);
    for (std::uint64_t k = 0; k < 5; ++k)
        EXPECT_EQ(exits[k], k);
}

TEST_F(IpStreamTest, BackpressureBoundsInputOccupancy)
{
    // A fast producer into a very slow sink: the producer's output is
    // throttled by the sink's 2 KiB lane, so the sink's input buffer
    // never overflows (credit-based flow control).
    IpParams slow = fastParams(IpKind::DC);
    slow.bytesPerCycle = 0.01; // 10 MB/s
    auto chain = makeChain(fastParams(), slow);
    sendFrame(chain, 0, 8_KiB, 8_KiB);
    // Step the simulation and check the invariant along the way.
    for (int i = 0; i < 50; ++i) {
        run(fromUs(20));
        EXPECT_TRUE(chain.sink->laneHasSpace(chain.sinkLane, 0));
    }
    run();
    EXPECT_EQ(chain.sink->framesExited(), 1u);
}

TEST_F(IpStreamTest, GeneratedFeedPacesDataOverSpan)
{
    // A camera-style generated frame spread over 1 ms must not
    // complete much earlier than its readout span.
    Tick done = 0;
    auto chain = makeChain(fastParams(IpKind::CAM),
                           fastParams(IpKind::DC),
                           [&](FlowId, std::uint64_t) {
                               done = sys->curTick();
                           });
    chain.prod->announceFrame(chain.prodLane, 0, 64_KiB, 64_KiB,
                              MaxTick, true);
    chain.sink->announceFrame(chain.sinkLane, 0, 64_KiB, 0, MaxTick,
                              true);
    chain.prod->feedFrame(chain.prodLane, 0, 64_KiB, 0,
                          /*generate=*/true, fromMs(1));
    run();
    EXPECT_GE(done, fromMs(0.9));
    EXPECT_EQ(mem->bytesRead(), 0u); // sensors do not touch DRAM
}

TEST_F(IpStreamTest, EdfPicksEarliestDeadlineLane)
{
    // Two lanes on one producer, distinct sinks; the later-announced
    // but earlier-deadline frame must finish first.
    IpParams pp = fastParams(IpKind::VD, 2);
    pp.sched = SchedPolicy::EDF;
    pp.bytesPerCycle = 0.5; // slow enough to expose ordering
    auto &prod = makeIp("t.prod", pp);
    std::vector<int> exits;
    auto &sinkA = makeIp("t.sinkA", fastParams(IpKind::DC, 1));
    auto &sinkB = makeIp("t.sinkB", fastParams(IpKind::NW, 1));
    int la = prod.bindLane(1);
    int lb = prod.bindLane(2);
    int sa_ = sinkA.bindLane(1);
    int sb = sinkB.bindLane(2);
    prod.connectLane(la, &sinkA, sa_);
    prod.connectLane(lb, &sinkB, sb);
    sinkA.makeLaneSink(sa_, [&](FlowId, std::uint64_t) {
        exits.push_back(1);
    });
    sinkB.makeLaneSink(sb, [&](FlowId, std::uint64_t) {
        exits.push_back(2);
    });

    // Lane A: late deadline; lane B: early deadline.
    prod.announceFrame(la, 0, 32_KiB, 32_KiB, fromMs(100), true);
    sinkA.announceFrame(sa_, 0, 32_KiB, 0, fromMs(100), true);
    prod.announceFrame(lb, 0, 32_KiB, 32_KiB, fromMs(1), true);
    sinkB.announceFrame(sb, 0, 32_KiB, 0, fromMs(1), true);
    prod.feedFrame(la, 0, 32_KiB, 0, false);
    prod.feedFrame(lb, 0, 32_KiB, 1_MiB, false);
    run();
    ASSERT_EQ(exits.size(), 2u);
    EXPECT_EQ(exits[0], 2); // earliest deadline exits first
    EXPECT_GT(prod.contextSwitches(), 0u);
}

TEST_F(IpStreamTest, FrameGranularityBlocksOtherLaneMidFrame)
{
    // Single-context IP (Frame granularity): while a slow camera-
    // paced frame dribbles in on lane A, an urgent frame on lane B
    // must wait for A to finish (the Fig 7 effect).
    IpParams pp = fastParams(IpKind::IMG, 2);
    pp.switchGranularity = SwitchGranularity::Frame;
    pp.sched = SchedPolicy::FIFO;
    auto &prod = makeIp("t.prod", pp);
    auto &sinkA = makeIp("t.sinkA", fastParams(IpKind::DC, 1));
    auto &sinkB = makeIp("t.sinkB", fastParams(IpKind::NW, 1));
    Tick exitA = 0, exitB = 0;
    int la = prod.bindLane(1);
    int lb = prod.bindLane(2);
    int sa_ = sinkA.bindLane(1);
    int sb = sinkB.bindLane(2);
    prod.connectLane(la, &sinkA, sa_);
    prod.connectLane(lb, &sinkB, sb);
    sinkA.makeLaneSink(sa_, [&](FlowId, std::uint64_t) {
        exitA = sys->curTick();
    });
    sinkB.makeLaneSink(sb, [&](FlowId, std::uint64_t) {
        exitB = sys->curTick();
    });

    // Lane A: generated frame spread over 2 ms (slow sensor).
    prod.announceFrame(la, 0, 64_KiB, 8_KiB, MaxTick, true);
    sinkA.announceFrame(sa_, 0, 8_KiB, 0, MaxTick, true);
    prod.feedFrame(la, 0, 64_KiB, 0, true, fromMs(2));
    // Let A's first chunks arrive so the engine commits to lane A.
    run(fromUs(100));
    // Lane B: a tiny urgent frame.
    prod.announceFrame(lb, 0, 4_KiB, 4_KiB, 0, true);
    sinkB.announceFrame(sb, 0, 4_KiB, 0, 0, true);
    prod.feedFrame(lb, 0, 4_KiB, 0, false);
    run();
    EXPECT_GT(exitA, fromMs(1.8));
    // B exits only after A's whole frame, despite being tiny.
    EXPECT_GT(exitB, exitA);
}

TEST_F(IpStreamTest, SubframeGranularityInterleavesLanes)
{
    // Virtualized IP: the urgent lane-B frame overtakes the slow
    // camera-paced lane-A frame.
    IpParams pp = fastParams(IpKind::IMG, 2);
    pp.switchGranularity = SwitchGranularity::Subframe;
    pp.sched = SchedPolicy::EDF;
    auto &prod = makeIp("t.prod", pp);
    auto &sinkA = makeIp("t.sinkA", fastParams(IpKind::DC, 1));
    auto &sinkB = makeIp("t.sinkB", fastParams(IpKind::NW, 1));
    Tick exitA = 0, exitB = 0;
    int la = prod.bindLane(1);
    int lb = prod.bindLane(2);
    int sa_ = sinkA.bindLane(1);
    int sb = sinkB.bindLane(2);
    prod.connectLane(la, &sinkA, sa_);
    prod.connectLane(lb, &sinkB, sb);
    sinkA.makeLaneSink(sa_, [&](FlowId, std::uint64_t) {
        exitA = sys->curTick();
    });
    sinkB.makeLaneSink(sb, [&](FlowId, std::uint64_t) {
        exitB = sys->curTick();
    });

    prod.announceFrame(la, 0, 64_KiB, 8_KiB, fromMs(10), true);
    sinkA.announceFrame(sa_, 0, 8_KiB, 0, fromMs(10), true);
    prod.feedFrame(la, 0, 64_KiB, 0, true, fromMs(2));
    run(fromUs(100));
    prod.announceFrame(lb, 0, 4_KiB, 4_KiB, 0, true);
    sinkB.announceFrame(sb, 0, 4_KiB, 0, 0, true);
    prod.feedFrame(lb, 0, 4_KiB, 0, false);
    run();
    EXPECT_LT(exitB, exitA); // urgent frame overtook
}

TEST_F(IpStreamTest, TransactionGranularityBlocksAcrossBurst)
{
    // Transaction granularity: a 3-frame burst on lane A (only the
    // last closes the txn) keeps lane B blocked past all of A's
    // frames.
    IpParams pp = fastParams(IpKind::VD, 2);
    pp.switchGranularity = SwitchGranularity::Transaction;
    pp.bytesPerCycle = 0.2;
    auto &prod = makeIp("t.prod", pp);
    auto &sinkA = makeIp("t.sinkA", fastParams(IpKind::DC, 1));
    auto &sinkB = makeIp("t.sinkB", fastParams(IpKind::NW, 1));
    std::vector<int> exits;
    int la = prod.bindLane(1);
    int lb = prod.bindLane(2);
    int sa_ = sinkA.bindLane(1);
    int sb = sinkB.bindLane(2);
    prod.connectLane(la, &sinkA, sa_);
    prod.connectLane(lb, &sinkB, sb);
    sinkA.makeLaneSink(sa_, [&](FlowId, std::uint64_t) {
        exits.push_back(1);
    });
    sinkB.makeLaneSink(sb, [&](FlowId, std::uint64_t) {
        exits.push_back(2);
    });

    // Burst of 3 frames on lane A; txn closes on the last only.
    for (std::uint64_t k = 0; k < 3; ++k) {
        prod.announceFrame(la, k, 16_KiB, 16_KiB, fromMs(50),
                           /*txn_end=*/k == 2);
        sinkA.announceFrame(sa_, k, 16_KiB, 0, fromMs(50), k == 2);
        prod.feedFrame(la, k, 16_KiB, k * 1_MiB, false);
    }
    run(fromUs(50)); // engine commits to lane A
    prod.announceFrame(lb, 0, 4_KiB, 4_KiB, 0, true);
    sinkB.announceFrame(sb, 0, 4_KiB, 0, 0, true);
    prod.feedFrame(lb, 0, 4_KiB, 8_MiB, false);
    run();
    ASSERT_EQ(exits.size(), 4u);
    // All three burst frames exit before the urgent B frame.
    EXPECT_EQ(exits[0], 1);
    EXPECT_EQ(exits[1], 1);
    EXPECT_EQ(exits[2], 1);
    EXPECT_EQ(exits[3], 2);
}

TEST_F(IpStreamTest, FrameStartCallbackFiresOnFirstChunk)
{
    auto chain = makeChain(fastParams(), fastParams(IpKind::DC));
    std::vector<std::uint64_t> starts;
    chain.prod->setLaneFrameStartCb(
        chain.prodLane,
        [&](FlowId, std::uint64_t k) { starts.push_back(k); });
    sendFrame(chain, 3, 16_KiB, 16_KiB);
    sendFrame(chain, 4, 16_KiB, 16_KiB);
    run();
    EXPECT_EQ(starts, (std::vector<std::uint64_t>{3, 4}));
}

TEST_F(IpStreamTest, BufferEnergyAccrues)
{
    auto chain = makeChain(fastParams(), fastParams(IpKind::DC));
    sendFrame(chain, 0, 64_KiB, 64_KiB);
    run();
    ledger->closeAll(sys->curTick());
    EXPECT_GT(ledger->categoryNj("buffer"), 0.0);
}

TEST_F(IpStreamTest, AnnounceValidation)
{
    auto &ip = makeIp("t.ip", fastParams());
    EXPECT_THROW(ip.announceFrame(0, 0, 4096, 0, MaxTick, true),
                 SimPanic); // unbound lane
    int l = ip.bindLane(1);
    EXPECT_THROW(ip.announceFrame(l, 0, 0, 0, MaxTick, true),
                 SimPanic); // zero input
}


TEST_F(IpStreamTest, OddGeometryConservesBytesExactly)
{
    // Sizes that are not multiples of the 1 KiB sub-frame.  Frame 0
    // shrinks 5 KiB + 7 to 3 bytes over 6 units, so half its units
    // produce nothing; frame 1 expands 1 KiB + 1 to 64 KiB + 3 over
    // 65 units.  Every unit of frame 0 is input-dominated and every
    // unit of frame 1 output-dominated, so the closed form of the
    // producer's bytes_processed, the sum over units of
    // max(in, out), is max(in, out) per frame.
    const std::uint64_t in0 = 5_KiB + 7, out0 = 3;
    const std::uint64_t in1 = 1_KiB + 1, out1 = 64_KiB + 3;
    std::vector<std::uint64_t> exits;
    auto chain = makeChain(fastParams(), fastParams(IpKind::DC),
                           [&](FlowId, std::uint64_t k) {
                               exits.push_back(k);
                           });
    sendFrame(chain, 0, in0, out0);
    sendFrame(chain, 1, in1, out1);
    run();
    EXPECT_EQ(exits, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(sa->peerBytes(), out0 + out1);
    EXPECT_EQ(chain.prod->bytesProcessed(), in0 + out1);
    EXPECT_EQ(chain.prod->subframesProcessed(), 6u + 65u);
    // The sink consumes what the producer pushed, one unit per
    // started KiB of it.
    EXPECT_EQ(chain.sink->bytesProcessed(), out0 + out1);
    EXPECT_EQ(chain.sink->subframesProcessed(), 1u + 65u);
    EXPECT_EQ(chain.prod->laneOccupancy(chain.prodLane), 0u);
    EXPECT_EQ(chain.sink->laneOccupancy(chain.sinkLane), 0u);
    EXPECT_EQ(chain.prod->creditsReserved(), in0 + in1);
    EXPECT_EQ(chain.prod->creditsReturned(), in0 + in1);
}

TEST_F(IpStreamTest, OutOfOrderFeedCompletionsDeliverInOrder)
{
    // A DRAM-fed head lane on non-ideal memory.  DRAM interleaves
    // 1 KiB blocks over 4 channels, so the feed's consecutive chunks
    // land on consecutive channels, 4 reads in flight.  Eight chains
    // of row-conflicting reads keep channel 0 backlogged, so each
    // chunk there completes after the chunks issued behind it on
    // channels 1-3.  (Checked once by logging onFeedChunkReady():
    // 73 chunks arrived ahead of the next in-order one with 8 KiB
    // lanes, in all three frames, and 204 with 96 KiB lanes, with up
    // to 7 and 22 chunks pending.)  Frames of more than 64 chunks wrap
    // the arrival ring; 96 KiB lanes make it two words.  Every feed
    // byte must be read once, delivered once and in order, under
    // strict audits throughout.
    for (std::uint32_t laneBytes : {8_KiB, 96_KiB}) {
        SCOPED_TRACE("laneBytes " + std::to_string(laneBytes));
        ips.clear();
        buildPlatform(/*ideal_memory=*/false);
        IpParams pp = fastParams();
        pp.laneBytes = laneBytes;
        ASSERT_EQ(pp.maxOutstandingDma, 4u);
        std::vector<std::uint64_t> starts, exits;
        auto chain = makeChain(pp, fastParams(IpKind::DC),
                               [&](FlowId, std::uint64_t k) {
                                   exits.push_back(k);
                               });
        chain.prod->setLaneFrameStartCb(
            chain.prodLane,
            [&](FlowId, std::uint64_t k) { starts.push_back(k); });

        Auditor audit(AuditConfig{AuditMode::Strict, 1.0});
        audit.attach("prod", chain.prod);
        audit.attach("sink", chain.sink);
        audit.attach("sa", sa.get());
        audit.attach("mem", mem.get());

        for (int c = 0; c < 8; ++c)
            hammerChannel0(40);
        const std::uint64_t in = 96_KiB + 5;
        std::uint64_t fed = 0;
        for (std::uint64_t k = 0; k < 3; ++k) {
            sendFrame(chain, k, in, in);
            fed += in;
        }
        for (int i = 0; i < 400; ++i) {
            run(fromUs(1));
            audit.runAudit(sys->curTick());
        }
        run();
        audit.runAudit(sys->curTick());

        EXPECT_EQ(starts, (std::vector<std::uint64_t>{0, 1, 2}));
        EXPECT_EQ(exits, (std::vector<std::uint64_t>{0, 1, 2}));
        EXPECT_EQ(mem->bytesForRequester(
                      static_cast<std::uint32_t>(pp.kind)), fed);
        EXPECT_EQ(chain.prod->creditsReserved(), fed);
        EXPECT_EQ(chain.prod->creditsReturned(), fed);
        EXPECT_EQ(chain.prod->bytesProcessed(), fed);
        EXPECT_EQ(sa->peerBytes(), fed);
        EXPECT_EQ(chain.prod->laneOccupancy(chain.prodLane), 0u);
        EXPECT_EQ(chain.prod->laneInAvail(chain.prodLane), 0u);
        EXPECT_EQ(chain.prod->laneOverflows(), 0u);
        EXPECT_TRUE(audit.violations().empty());
    }
}

TEST_F(IpStreamTest, OverflowToMemorySpillsInsteadOfStalling)
{
    // Fast producer, crawling sink: with overflowToMemory the
    // producer's engine finishes its frame quickly, the overflow
    // detours through DRAM, and the sink still consumes every byte.
    IpParams pp = fastParams();
    pp.overflowToMemory = true;
    IpParams slow = fastParams(IpKind::DC);
    slow.bytesPerCycle = 0.05;
    Tick prodDone = 0, sinkDone = 0;
    auto &prod = makeIp("t.prod", pp);
    auto &sink = makeIp("t.sink", slow);
    int pl = prod.bindLane(1);
    int sl = sink.bindLane(1);
    prod.connectLane(pl, &sink, sl);
    sink.makeLaneSink(sl, [&](FlowId, std::uint64_t) {
        sinkDone = sys->curTick();
    });
    prod.announceFrame(pl, 0, 64_KiB, 64_KiB, MaxTick, true);
    sink.announceFrame(sl, 0, 64_KiB, 0, MaxTick, true);
    prod.feedFrame(pl, 0, 64_KiB, 0, false);

    // Watch for when the producer's compute finishes (active ticks
    // stop growing) by sampling.
    run(fromMs(0.2));
    prodDone = prod.activeTicks();
    run(fromSec(2));
    EXPECT_EQ(sink.framesExited(), 1u);
    EXPECT_GT(prod.bytesSpilled(), 0u);
    // The spill detour shows up as DRAM write+read traffic.
    EXPECT_GE(mem->bytesWritten(), prod.bytesSpilled());
    EXPECT_GE(mem->bytesRead(), 64_KiB + prod.bytesSpilled());
    // Producer compute was (nearly) done long before the sink.
    EXPECT_NEAR(static_cast<double>(prodDone),
                static_cast<double>(prod.activeTicks()),
                static_cast<double>(prod.activeTicks()) * 0.05);
    EXPECT_GT(sinkDone, fromMs(1));
}

TEST_F(IpStreamTest, OverflowPreservesByteCount)
{
    IpParams pp = fastParams();
    pp.overflowToMemory = true;
    IpParams slow = fastParams(IpKind::DC);
    slow.bytesPerCycle = 0.2;
    auto &prod = makeIp("t.prod", pp);
    auto &sink = makeIp("t.sink", slow);
    int pl = prod.bindLane(1);
    int sl = sink.bindLane(1);
    prod.connectLane(pl, &sink, sl);
    std::vector<std::uint64_t> exits;
    sink.makeLaneSink(sl, [&](FlowId, std::uint64_t k) {
        exits.push_back(k);
    });
    for (std::uint64_t k = 0; k < 3; ++k) {
        prod.announceFrame(pl, k, 16_KiB, 32_KiB, MaxTick, true);
        sink.announceFrame(sl, k, 32_KiB, 0, MaxTick, true);
        prod.feedFrame(pl, k, 16_KiB, k * 1_MiB, false);
    }
    run(fromSec(2));
    // All frames exit, in order, despite the memory detour.
    EXPECT_EQ(exits, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST_F(IpStreamTest, WatchdogResetReturnsLaneCreditsOnce)
{
    // Regression: a watchdog reset mid-unit must NOT return the
    // unit's input reservation early (the retry recomputes from that
    // same input), and the eventual unit completion must return it
    // exactly once.  A double release would let a later frame reserve
    // past lane capacity; a leak would wedge the lane full.
    FaultPlan plan;
    plan.engineHangProb = 0.5; // every other unit hangs once
    plan.watchdogTimeout = fromUs(5);
    plan.resetPenalty = fromUs(1);
    plan.maxRetries = 10; // generous: no frame is ever given up
    plan.seed = 7;
    FaultInjector faults(plan);

    ips.push_back(std::make_unique<IpCore>(
        *sys, "t.prod", fastParams(), *sa, *ledger, &faults));
    IpCore &prod = *ips.back();
    ips.push_back(std::make_unique<IpCore>(
        *sys, "t.sink", fastParams(IpKind::DC), *sa, *ledger, &faults));
    IpCore &sink = *ips.back();
    int pl = prod.bindLane(1);
    int sl = sink.bindLane(1);
    prod.connectLane(pl, &sink, sl);
    sink.makeLaneSink(sl, nullptr);

    for (std::uint64_t k = 0; k < 6; ++k) {
        prod.announceFrame(pl, k, 32_KiB, 32_KiB, MaxTick, true);
        sink.announceFrame(sl, k, 32_KiB, 0, MaxTick, true);
        prod.feedFrame(pl, k, 32_KiB, 0, false);
    }
    run(fromSec(2));

    // Recovery actually happened (the plan is aggressive enough)...
    EXPECT_GT(prod.watchdogResets() + sink.watchdogResets(), 0u);
    EXPECT_EQ(sink.framesExited(), 6u);
    // ...and the drained lanes hold no stuck reservations: every
    // credit consumed at unit start came back at unit finish, once.
    for (const IpCore *ip : {&prod, &sink}) {
        for (int l : {pl, sl}) {
            if (l >= static_cast<int>(ip->params().numLanes))
                continue;
            EXPECT_EQ(ip->laneOccupancy(l), 0u)
                << ip->name() << " lane " << l << " leaked occupancy";
            EXPECT_EQ(ip->laneInAvail(l), 0u)
                << ip->name() << " lane " << l << " leaked input";
        }
    }
    EXPECT_EQ(prod.laneOverflows(), 0u);
    EXPECT_EQ(sink.laneOverflows(), 0u);
}

} // namespace
} // namespace vip
