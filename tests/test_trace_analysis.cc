/**
 * @file
 * Tests for the offline trace-analysis toolkit.
 */

#include <gtest/gtest.h>

#include "app/trace_analysis.hh"
#include "core/simulation.hh"

namespace vip
{
namespace
{

FrameTrace
syntheticTrace()
{
    // Two flows at 60 FPS; flow B misses frames 2-4 (a jank burst)
    // and drops frame 4.
    FrameTrace t;
    for (int flow = 0; flow < 2; ++flow) {
        for (int k = 0; k < 8; ++k) {
            FrameEvent e;
            e.flowId = flow;
            e.flowName = flow == 0 ? "video" : "preview";
            e.frameId = k;
            e.generated = fromMs(k * 16.0);
            e.started = e.generated + fromMs(1);
            e.deadline = e.generated + fromMs(20);
            bool miss = flow == 1 && k >= 2 && k <= 4;
            e.completed =
                e.started + (miss ? fromMs(30) : fromMs(10));
            e.violated = miss;
            e.dropped = flow == 1 && k == 4;
            t.record(e);
        }
    }
    return t;
}

TEST(TraceAnalysis, PerFlowAggregates)
{
    auto trace = syntheticTrace();
    TraceAnalysis ta(trace);
    auto stats = ta.perFlow();
    ASSERT_EQ(stats.size(), 2u);

    const auto &video = stats.at("video");
    EXPECT_EQ(video.frames, 8u);
    EXPECT_EQ(video.violations, 0u);
    EXPECT_DOUBLE_EQ(video.meanFlowTimeMs, 10.0);
    EXPECT_EQ(video.worstJankRun, 0u);

    const auto &prev = stats.at("preview");
    EXPECT_EQ(prev.violations, 3u);
    EXPECT_EQ(prev.drops, 1u);
    EXPECT_EQ(prev.worstJankRun, 3u);
    EXPECT_GT(prev.p95FlowTimeMs, video.p95FlowTimeMs);
    EXPECT_DOUBLE_EQ(prev.maxFlowTimeMs, 30.0);
}

TEST(TraceAnalysis, Percentiles)
{
    auto trace = syntheticTrace();
    TraceAnalysis ta(trace);
    // 13 of 16 frames at 10 ms, 3 at 30 ms.
    EXPECT_DOUBLE_EQ(ta.flowTimePercentileMs(0.5), 10.0);
    EXPECT_DOUBLE_EQ(ta.flowTimePercentileMs(1.0), 30.0);
    EXPECT_THROW(ta.flowTimePercentileMs(0.0), SimPanic);
}

TEST(TraceAnalysis, RejudgeWithLooserDeadline)
{
    auto trace = syntheticTrace();
    TraceAnalysis ta(trace);
    // Original policy (20 ms ~ 1.25 periods): 3 misses.  A 3-period
    // (48 ms) policy forgives all of them; a 0.5-period (8 ms) policy
    // condemns every frame (completion is 11 ms at best).
    auto strict = ta.rejudge(0.5);
    auto loose = ta.rejudge(3.0);
    EXPECT_EQ(loose.first, 0u);
    EXPECT_EQ(strict.first, 16u);
    EXPECT_GE(strict.second, 3u); // the 30 ms frames drop too
}

TEST(TraceAnalysis, JankEventsCountBursts)
{
    auto trace = syntheticTrace();
    TraceAnalysis ta(trace);
    EXPECT_EQ(ta.jankEvents(2), 1u); // one burst of 3
    EXPECT_EQ(ta.jankEvents(1), 1u);
    EXPECT_EQ(ta.jankEvents(4), 0u);
}

TEST(TraceAnalysis, WorksOnRealSimulationTrace)
{
    SocConfig cfg;
    cfg.system = SystemConfig::IpToIpBurst;
    cfg.simSeconds = 0.25;
    cfg.recordTrace = true;
    Simulation sim(cfg, WorkloadCatalog::byIndex(7));
    auto s = sim.run();
    TraceAnalysis ta(s.trace);
    auto per = ta.perFlow();
    EXPECT_GE(per.size(), 2u);
    std::uint64_t frames = 0;
    for (const auto &[name, fs] : per)
        frames += fs.frames;
    EXPECT_EQ(frames, s.trace.size());
    // Re-judging with the same 1.25-period policy the platform used
    // must reproduce the recorded violation count.
    auto re = ta.rejudge(1.25);
    EXPECT_EQ(re.first, s.trace.countViolations());
}

} // namespace
} // namespace vip
