/**
 * @file
 * Time-series plane (--ts) tests: digest neutrality across every
 * system configuration, byte-identical series output for identical
 * runs (decimation included), stat-export gating, glob selection,
 * steady-state detection on every configuration, and the
 * --checkpoint-on-steady snapshot restoring to a byte-identical
 * series.json and digest stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/simulation.hh"
#include "obs/timeseries.hh"
#include "sim/snapshot.hh"

using namespace vip;

namespace
{

/** The glob that selects every registered stat (--ts='*'). */
const std::string kEveryStat = "*";

SocConfig
auditedCfg(SystemConfig sc, double seconds = 0.2)
{
    SocConfig cfg;
    cfg.system = sc;
    cfg.simSeconds = seconds;
    cfg.audit.mode = AuditMode::Periodic;
    cfg.audit.periodMs = 1.0;
    return cfg;
}

std::string
seriesOf(const Simulation &sim)
{
    std::ostringstream os;
    sim.writeSeriesJson(os);
    return os.str();
}

std::string
statsOf(const Simulation &sim)
{
    std::ostringstream os;
    sim.writeStatsJson(os);
    return os.str();
}

/** Fresh scratch directory per test, removed on teardown. */
class TimeSeriesSnapshotTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        namespace fs = std::filesystem;
        _dir = fs::temp_directory_path() /
               ("vip-ts-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }

    void TearDown() override { std::filesystem::remove_all(_dir); }

    std::string
    path(const std::string &name) const
    {
        return (_dir / name).string();
    }

    std::filesystem::path _dir;
};

} // namespace

TEST(TimeSeriesGlob, MatchesStarQuestionAndAlternatives)
{
    EXPECT_TRUE(TimeSeries::globMatch("*", "anything.at.all"));
    EXPECT_TRUE(TimeSeries::globMatch("flow.*", "flow.3.completed"));
    EXPECT_FALSE(TimeSeries::globMatch("flow.*", "sim.eventq.live"));
    EXPECT_TRUE(
        TimeSeries::globMatch("flow.*.completed", "flow.12.completed"));
    EXPECT_FALSE(
        TimeSeries::globMatch("flow.*.completed", "flow.12.deadline"));
    EXPECT_TRUE(TimeSeries::globMatch("flow.?.completed",
                                      "flow.3.completed"));
    EXPECT_FALSE(TimeSeries::globMatch("flow.?.completed",
                                       "flow.12.completed"));
    EXPECT_TRUE(TimeSeries::globMatch("a,b", "b"));
    EXPECT_TRUE(TimeSeries::globMatch("flow.*,sim.eventq.live",
                                      "sim.eventq.live"));
    EXPECT_FALSE(TimeSeries::globMatch("flow.*,sim.eventq.live",
                                       "dram.reads"));
    EXPECT_FALSE(TimeSeries::globMatch("", "x"));
    EXPECT_TRUE(TimeSeries::globMatch("**", ""));
}

TEST(TimeSeriesPlane, DigestNeutralAcrossAllConfigs)
{
    // Same contract as --prof, one layer up: an armed time-series
    // plane must not change one bit of simulated behavior.  Audit
    // every 1 ms and require the full digest stream to match a bare
    // run, for every configuration.  Select every registry stat, not
    // the compact default, so every getter is read each interval.
    auto wl = WorkloadCatalog::byIndex(4);
    for (auto sc : kAllConfigs) {
        SCOPED_TRACE(systemConfigName(sc));

        Simulation ref(auditedCfg(sc), wl);
        ref.run();

        SocConfig cfg = auditedCfg(sc);
        cfg.ts.armed = true;
        cfg.ts.glob = kEveryStat;
        Simulation armed(cfg, wl);
        armed.run();

        ASSERT_NE(armed.timeseries(), nullptr);
        EXPECT_GT(armed.timeseries()->rows(), 0u);
        EXPECT_EQ(ref.auditor().streamDigest(),
                  armed.auditor().streamDigest());
        EXPECT_EQ(ref.system().curTick(), armed.system().curTick());
        EXPECT_EQ(ref.system().eventq().servicedEvents(),
                  armed.system().eventq().servicedEvents());
    }
}

TEST(TimeSeriesPlane, StatsExportGatedOnArming)
{
    // ts.* and sim.steady.tick ride along only when --ts is armed,
    // so baseline (disarmed) stats dumps stay comparable across
    // tooling that diffs them bit for bit.
    SocConfig cfg = auditedCfg(SystemConfig::VIP);
    cfg.ts.armed = true;
    Simulation armed(cfg, WorkloadCatalog::byIndex(4));
    armed.run();
    const std::string on = statsOf(armed);
    EXPECT_NE(on.find("\"ts.samples\""), std::string::npos);
    EXPECT_NE(on.find("\"ts.rows\""), std::string::npos);
    EXPECT_NE(on.find("\"ts.stride\""), std::string::npos);
    EXPECT_NE(on.find("\"sim.steady.tick\""), std::string::npos);

    Simulation off(auditedCfg(SystemConfig::VIP),
                   WorkloadCatalog::byIndex(4));
    off.run();
    const std::string bare = statsOf(off);
    EXPECT_EQ(bare.find("\"ts."), std::string::npos);
    EXPECT_EQ(bare.find("\"sim.steady."), std::string::npos);
    EXPECT_EQ(off.timeseries(), nullptr);
}

TEST(TimeSeriesPlane, GlobSelectsSubsetAndSeriesReflectsIt)
{
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.1);
    cfg.ts.armed = true;
    cfg.ts.glob = "flow.*";
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    const TimeSeries *ts = sim.timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_GT(ts->selected(), 0u);

    SocConfig all = auditedCfg(SystemConfig::VIP, 0.1);
    all.ts.armed = true;
    all.ts.glob = kEveryStat;
    Simulation simAll(all, WorkloadCatalog::byIndex(4));
    simAll.run();
    ASSERT_NE(simAll.timeseries(), nullptr);
    EXPECT_LT(ts->selected(), simAll.timeseries()->selected());

    const std::string doc = seriesOf(sim);
    EXPECT_NE(doc.find("\"flow."), std::string::npos);
    EXPECT_EQ(doc.find("\"path\": \"dram."), std::string::npos);
}

TEST(TimeSeriesPlane, DefaultSelectionIsCompactAndCoversTheDetector)
{
    // The default glob is the always-on fleet heartbeat's column set:
    // a small fraction of the registry that still holds every series
    // the steady-state detector tracks.
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.02);
    cfg.ts.armed = true;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();
    const TimeSeries *ts = sim.timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_LT(ts->selected() * 3, sim.statsRegistry().size());

    const std::string doc = seriesOf(sim);
    for (const char *p : {"sim.eventq.live", "flow.0.generated",
                          "flow.0.completed", "flow.0.frames_shed",
                          "ip.vd.credits_reserved",
                          "ip.vd.credits_returned", "ip.vd.busy_ms",
                          "ip.vd.stall_ms", "ip.vd.bp_stall_ms",
                          "dram.bytes_read", "dram.bytes_written",
                          "dram.powerdown_ms", "dram.selfrefresh_ms",
                          "sa.busy_ms", "cpu.core0.active_ms",
                          "cpu.core0.sleep_ms"})
        EXPECT_NE(doc.find(std::string("\"path\": \"") + p + "\""),
                  std::string::npos)
            << p;
    const auto &tracked = ts->trackedPaths();
    EXPECT_NE(std::find(tracked.begin(), tracked.end(),
                        "sim.eventq.live"),
              tracked.end());
    EXPECT_NE(std::find(tracked.begin(), tracked.end(),
                        "flow.0.completed"),
              tracked.end());
}

TEST(TimeSeriesPlane, SeriesBytesDeterministicUnderDecimation)
{
    // 0.3 simulated s sampled every 0.1 ms is ~3000 boundaries
    // against a 512-row ring: the keep-stride must have doubled, and
    // two identical runs must still dump byte-identical series.json
    // (no wall-clock content, no iteration-order leaks) over every
    // registry stat.
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.3);
    cfg.ts.intervalMs = 0.1;
    cfg.ts.armed = true;
    cfg.ts.glob = kEveryStat;

    Simulation a(cfg, WorkloadCatalog::byIndex(4));
    a.run();
    Simulation b(cfg, WorkloadCatalog::byIndex(4));
    b.run();

    const TimeSeries *ts = a.timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_GT(ts->samplesSeen(), TimeSeries::kRowCap);
    EXPECT_GT(ts->stride(), 1u);
    EXPECT_LE(ts->rows(), TimeSeries::kRowCap);
    EXPECT_GT(ts->rows(), 0u);

    EXPECT_EQ(seriesOf(a), seriesOf(b));
}

TEST(TimeSeriesPlane, SteadyDetectedOnAllConfigs)
{
    // The shipped detector defaults must find steady state for the
    // W4 reference workload on every paper configuration, after the
    // warmup and before the run ends (~150-270 simulated ms).
    auto wl = WorkloadCatalog::byIndex(4);
    for (auto sc : kAllConfigs) {
        SCOPED_TRACE(systemConfigName(sc));
        SocConfig cfg = auditedCfg(sc, 0.35);
        cfg.ts.armed = true;
        Simulation sim(cfg, wl);
        sim.run();

        const TimeSeries *ts = sim.timeseries();
        ASSERT_NE(ts, nullptr);
        EXPECT_TRUE(ts->steadyDetected());
        EXPECT_GE(ts->steadyTickMs(), cfg.ts.steadyWarmupMs);
        EXPECT_LT(ts->steadyTickMs(), 350.0);
    }
}

TEST_F(TimeSeriesSnapshotTest, SteadyCheckpointRestoresByteIdentical)
{
    // The warm-start contract end to end: --checkpoint-on-steady
    // writes one snapshot at the first quiescent point after
    // detection, and a run restored from it finishes with a digest
    // stream, stats dump AND series.json byte-identical to the
    // uninterrupted run's — rows resume mid-ring, the detector
    // verdict survives, and the one-shot plan never re-arms.  Every
    // registry stat is selected so each one's restore is compared.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("steady.vips");

    SocConfig base = auditedCfg(SystemConfig::VIP, 0.4);
    base.ts.armed = true;
    base.ts.glob = kEveryStat;

    Simulation ref(base, wl);
    ref.run();
    ASSERT_NE(ref.timeseries(), nullptr);
    ASSERT_TRUE(ref.timeseries()->steadyDetected());
    const std::string wantSeries = seriesOf(ref);
    const std::string wantStats = statsOf(ref);

    SocConfig wcfg = base;
    wcfg.ts.checkpointOnSteady = snap;
    Simulation writer(wcfg, wl);
    writer.run();
    // Exactly the one steady snapshot, written past the detection
    // tick, and the write must not have perturbed the run.
    EXPECT_EQ(writer.checkpointsWritten(), 1u);
    ASSERT_TRUE(std::filesystem::exists(snap));
    auto meta = SnapshotReader::readMeta(snap);
    EXPECT_GE(toMs(meta.tick),
              writer.timeseries()->steadyTickMs());
    EXPECT_EQ(writer.auditor().streamDigest(),
              ref.auditor().streamDigest());
    EXPECT_EQ(seriesOf(writer), wantSeries);

    SocConfig rcfg = wcfg; // identical flags on resume
    rcfg.restorePath = snap;
    Simulation resumed(rcfg, wl);
    resumed.run();
    // The restored plan state says "already written": no second
    // steady snapshot may appear.
    EXPECT_EQ(resumed.checkpointsWritten(), 0u);
    ASSERT_NE(resumed.timeseries(), nullptr);
    EXPECT_TRUE(resumed.timeseries()->steadyDetected());
    EXPECT_EQ(resumed.timeseries()->steadyTickMs(),
              ref.timeseries()->steadyTickMs());
    EXPECT_EQ(seriesOf(resumed), wantSeries);
    EXPECT_EQ(statsOf(resumed), wantStats);
    EXPECT_EQ(resumed.auditor().streamDigest(),
              ref.auditor().streamDigest());
}

TEST_F(TimeSeriesSnapshotTest, ArmingMustMatchAcrossRestore)
{
    // Arming is excluded from checkpoint *identity* but the series
    // rows live in the snapshot: restoring a ts-armed snapshot into
    // a bare run (or vice versa) must fail crisply, not desync.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("mid.vips");

    SocConfig wcfg = auditedCfg(SystemConfig::VIP, 0.4);
    wcfg.ts.armed = true;
    Simulation writer(wcfg, wl);
    writer.checkpointAt(fromMs(300), snap);
    writer.run();
    ASSERT_EQ(writer.checkpointsWritten(), 1u);

    SocConfig bare = auditedCfg(SystemConfig::VIP, 0.4);
    bare.restorePath = snap;
    Simulation resumed(bare, wl);
    EXPECT_THROW(resumed.run(), SimFatal);
}

TEST_F(TimeSeriesSnapshotTest, IntervalMustMatchAcrossRestore)
{
    // The snapshot's sampler section records its interval: resuming
    // rows sampled every 2 ms at a 1 ms cadence would change the
    // spacing at the restore point while series.json claims one
    // interval, so it must fail and name both values.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("mid.vips");

    SocConfig wcfg = auditedCfg(SystemConfig::VIP, 0.4);
    wcfg.ts.armed = true;
    wcfg.ts.intervalMs = 2.0;
    Simulation writer(wcfg, wl);
    writer.checkpointAt(fromMs(300), snap);
    writer.run();
    ASSERT_EQ(writer.checkpointsWritten(), 1u);

    SocConfig rcfg = wcfg;
    rcfg.restorePath = snap;
    rcfg.ts.intervalMs = 1.0;
    Simulation resumed(rcfg, wl);
    try {
        resumed.run();
        ADD_FAILURE() << "restore at a different interval succeeded";
    } catch (const SimFatal &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("every 2 ms"), std::string::npos) << msg;
        EXPECT_NE(msg.find("every 1 ms"), std::string::npos) << msg;
    }

    // The matching interval restores.
    rcfg.ts.intervalMs = 2.0;
    Simulation same(rcfg, wl);
    same.run();
    EXPECT_EQ(seriesOf(same), seriesOf(writer));
}
