/**
 * @file
 * Time-series plane tests: digest neutrality across every system
 * configuration, stat-export gating, glob selection of the metrics
 * CSV's columns, steady-state detection on every configuration, the
 * --checkpoint-on-steady snapshot restoring to a byte-identical CSV
 * and digest stream, and a snapshot section that does not grow with
 * the run.
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
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The metrics CSV at @p path without its '# resumed-at-tick=' lines:
 *  what a resumed run's file must equal, byte for byte. */
std::string
withoutResumeStamps(const std::string &path)
{
    std::istringstream in(readFile(path));
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.rfind("# resumed-at-tick=", 0) != 0)
            out += line + "\n";
    }
    return out;
}

/** The column row of the metrics CSV at @p path. */
std::string
csvColumns(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("tick_ms", 0) == 0)
            return line;
    }
    return "";
}

/** A per-test scratch file under the gtest temp directory. */
std::string
tempCsv(const std::string &name)
{
    return ::testing::TempDir() + "vip-ts-" + name + ".csv";
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
        cfg.ts.metricsOut = tempCsv("neutral");
        cfg.ts.glob = kEveryStat;
        Simulation armed(cfg, wl);
        armed.run();

        ASSERT_NE(armed.timeseries(), nullptr);
        EXPECT_GT(armed.timeseries()->samplesSeen(), 0u);
        EXPECT_EQ(ref.auditor().streamDigest(),
                  armed.auditor().streamDigest());
        EXPECT_EQ(ref.system().curTick(), armed.system().curTick());
        EXPECT_EQ(ref.system().eventq().servicedEvents(),
                  armed.system().eventq().servicedEvents());
    }
    std::filesystem::remove(tempCsv("neutral"));
}

TEST(TimeSeriesPlane, StatsExportGatedOnArming)
{
    // ts.samples and sim.steady.tick ride along only when the
    // sampler is armed, so baseline (disarmed) stats dumps stay
    // comparable across tooling that diffs them bit for bit.
    SocConfig cfg = auditedCfg(SystemConfig::VIP);
    cfg.ts.metricsOut = tempCsv("gated");
    Simulation armed(cfg, WorkloadCatalog::byIndex(4));
    armed.run();
    const std::string on = statsOf(armed);
    EXPECT_NE(on.find("\"ts.samples\""), std::string::npos);
    EXPECT_NE(on.find("\"sim.steady.tick\""), std::string::npos);
    // The sampler keeps no rows, so it exports no row stats.
    EXPECT_EQ(on.find("\"ts.rows\""), std::string::npos);
    EXPECT_EQ(on.find("\"ts.stride\""), std::string::npos);

    Simulation off(auditedCfg(SystemConfig::VIP),
                   WorkloadCatalog::byIndex(4));
    off.run();
    const std::string bare = statsOf(off);
    EXPECT_EQ(bare.find("\"ts."), std::string::npos);
    EXPECT_EQ(bare.find("\"sim.steady."), std::string::npos);
    EXPECT_EQ(off.timeseries(), nullptr);
    std::filesystem::remove(cfg.ts.metricsOut);
}

TEST(TimeSeriesPlane, GlobSelectsSubsetAndSeriesReflectsIt)
{
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.1);
    cfg.ts.metricsOut = tempCsv("glob");
    cfg.ts.glob = "flow.*";
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    const TimeSeries *ts = sim.timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_GT(ts->selected(), 0u);

    SocConfig all = auditedCfg(SystemConfig::VIP, 0.1);
    all.ts.metricsOut = tempCsv("glob-all");
    all.ts.glob = kEveryStat;
    Simulation simAll(all, WorkloadCatalog::byIndex(4));
    simAll.run();
    ASSERT_NE(simAll.timeseries(), nullptr);
    EXPECT_LT(ts->selected(), simAll.timeseries()->selected());

    const std::string cols = csvColumns(cfg.ts.metricsOut);
    EXPECT_NE(cols.find(",flow."), std::string::npos);
    EXPECT_EQ(cols.find(",dram."), std::string::npos);
    EXPECT_NE(csvColumns(all.ts.metricsOut).find(",dram."),
              std::string::npos);
    std::filesystem::remove(cfg.ts.metricsOut);
    std::filesystem::remove(all.ts.metricsOut);
}

TEST(TimeSeriesPlane, DefaultSelectionIsCompactAndCoversTheDetector)
{
    // The default glob is the always-on fleet heartbeat's column set:
    // a small fraction of the registry that still holds every series
    // the steady-state detector tracks.
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.02);
    cfg.ts.metricsOut = tempCsv("default");
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();
    const TimeSeries *ts = sim.timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_LT(ts->selected() * 3, sim.statsRegistry().size());

    const std::string cols = csvColumns(cfg.ts.metricsOut) + ",";
    for (const char *p : {"sim.eventq.live", "flow.0.generated",
                          "flow.0.completed", "flow.0.frames_shed",
                          "ip.vd.credits_reserved",
                          "ip.vd.credits_returned", "ip.vd.busy_ms",
                          "ip.vd.stall_ms", "ip.vd.bp_stall_ms",
                          "dram.bytes_read", "dram.bytes_written",
                          "dram.powerdown_ms", "dram.selfrefresh_ms",
                          "sa.busy_ms", "cpu.core0.active_ms",
                          "cpu.core0.sleep_ms"})
        EXPECT_NE(cols.find(std::string(",") + p + ","),
                  std::string::npos)
            << p;
    const auto &tracked = ts->trackedPaths();
    EXPECT_NE(std::find(tracked.begin(), tracked.end(),
                        "sim.eventq.live"),
              tracked.end());
    EXPECT_NE(std::find(tracked.begin(), tracked.end(),
                        "flow.0.completed"),
              tracked.end());
    std::filesystem::remove(cfg.ts.metricsOut);
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
        cfg.ts.metricsOut = tempCsv("steady");
        Simulation sim(cfg, wl);
        sim.run();

        const TimeSeries *ts = sim.timeseries();
        ASSERT_NE(ts, nullptr);
        EXPECT_TRUE(ts->steadyDetected());
        EXPECT_GE(ts->steadyTickMs(), TimeSeries::kSteadyWarmupMs);
        EXPECT_LT(ts->steadyTickMs(), 350.0);
    }
    std::filesystem::remove(tempCsv("steady"));
}

TEST_F(TimeSeriesSnapshotTest, SteadyCheckpointRestoresByteIdentical)
{
    // The warm-start contract end to end: --checkpoint-on-steady
    // writes one snapshot at the first quiescent point after
    // detection, and a run restored from it finishes with a digest
    // stream, stats dump AND metrics CSV byte-identical to the
    // uninterrupted run's (the CSV plus one resume stamp) — the
    // detector verdict survives and the one-shot plan never re-arms.
    // Every registry stat is selected so each one's restore is
    // compared.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("steady.vips");

    SocConfig base = auditedCfg(SystemConfig::VIP, 0.4);
    base.ts.metricsOut = path("ref.csv");
    base.ts.glob = kEveryStat;

    Simulation ref(base, wl);
    ref.run();
    ASSERT_NE(ref.timeseries(), nullptr);
    ASSERT_TRUE(ref.timeseries()->steadyDetected());
    const std::string wantCsv = readFile(base.ts.metricsOut);
    const std::string wantStats = statsOf(ref);

    SocConfig wcfg = base;
    wcfg.ts.metricsOut = path("run.csv");
    wcfg.ts.checkpointOnSteady = snap;
    Simulation writer(wcfg, wl);
    writer.run();
    // Exactly the one steady snapshot, written past the detection
    // tick, and the write must not have perturbed the run.
    EXPECT_EQ(writer.checkpointsWritten(), 1u);
    EXPECT_TRUE(writer.steadySnapshotWritten());
    ASSERT_TRUE(std::filesystem::exists(snap));
    auto meta = SnapshotReader::readMeta(snap);
    EXPECT_GE(toMs(meta.tick),
              writer.timeseries()->steadyTickMs());
    EXPECT_EQ(writer.auditor().streamDigest(),
              ref.auditor().streamDigest());
    EXPECT_EQ(readFile(wcfg.ts.metricsOut), wantCsv);

    // Resume onto the writer's CSV as it stands, rows past the
    // snapshot included.
    SocConfig rcfg = wcfg; // identical flags on resume
    rcfg.restorePath = snap;
    Simulation resumed(rcfg, wl);
    resumed.run();
    // The restored plan state says "already written": no second
    // steady snapshot may appear.
    EXPECT_EQ(resumed.checkpointsWritten(), 0u);
    EXPECT_TRUE(resumed.steadySnapshotWritten());
    ASSERT_NE(resumed.timeseries(), nullptr);
    EXPECT_TRUE(resumed.timeseries()->steadyDetected());
    EXPECT_EQ(resumed.timeseries()->steadyTickMs(),
              ref.timeseries()->steadyTickMs());
    const std::string got = readFile(rcfg.ts.metricsOut);
    const std::size_t stamp =
        got.find("\n# resumed-at-tick=" + std::to_string(meta.tick) + "\n");
    EXPECT_NE(stamp, std::string::npos);
    EXPECT_EQ(got.rfind("# resumed-at-tick="), stamp + 1); // only one
    EXPECT_EQ(withoutResumeStamps(rcfg.ts.metricsOut), wantCsv);
    EXPECT_EQ(statsOf(resumed), wantStats);
    EXPECT_EQ(resumed.auditor().streamDigest(),
              ref.auditor().streamDigest());
}

TEST_F(TimeSeriesSnapshotTest, ArmingMustMatchAcrossRestore)
{
    // Arming is excluded from checkpoint *identity* but the sample
    // count and detector windows live in the snapshot: restoring an
    // armed snapshot into a bare run must fail crisply, not desync.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("mid.vips");

    SocConfig wcfg = auditedCfg(SystemConfig::VIP, 0.4);
    wcfg.ts.metricsOut = path("w.csv");
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
    // samples taken every 2 ms at a 1 ms cadence would change the
    // row spacing at the restore point while the CSV header claims
    // one interval, so it must fail and name both values.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("mid.vips");

    SocConfig wcfg = auditedCfg(SystemConfig::VIP, 0.4);
    wcfg.ts.metricsOut = path("w.csv");
    wcfg.ts.intervalMs = 2.0;
    Simulation writer(wcfg, wl);
    writer.checkpointAt(fromMs(300), snap);
    writer.run();
    ASSERT_EQ(writer.checkpointsWritten(), 1u);

    SocConfig rcfg = wcfg;
    rcfg.restorePath = snap;
    rcfg.ts.metricsOut = path("r.csv");
    std::filesystem::copy_file(wcfg.ts.metricsOut, rcfg.ts.metricsOut);
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
    EXPECT_EQ(withoutResumeStamps(rcfg.ts.metricsOut),
              readFile(wcfg.ts.metricsOut));
}

TEST_F(TimeSeriesSnapshotTest, SnapshotSectionDoesNotGrowWithTheRun)
{
    // The sampler's section holds its interval, selection, next
    // boundary, sample count and detector windows: once the windows
    // fill, its size no longer depends on how many rows the CSV has.
    SocConfig cfg = auditedCfg(SystemConfig::FrameBurst, 0.45);
    cfg.ts.metricsOut = path("m.csv");
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.checkpointAt(fromMs(200), path("a.vips"));
    sim.checkpointAt(fromMs(400), path("b.vips"));
    sim.run();
    ASSERT_EQ(sim.checkpointsWritten(), 2u);

    // A section's table entry is its name (u32 length, bytes) and
    // then its payload size as a little-endian u64.
    auto sectionBytes = [](const std::string &file) {
        const std::string name = "timeseries";
        std::string key(4, '\0');
        key[0] = static_cast<char>(name.size());
        key += name;
        const std::string bytes = readFile(file);
        const std::size_t at = bytes.find(key);
        EXPECT_NE(at, std::string::npos) << file;
        std::uint64_t size = 0;
        for (int i = 7; at != std::string::npos && i >= 0; --i)
            size = size << 8 |
                   static_cast<unsigned char>(bytes[at + key.size() + i]);
        return size;
    };
    const std::uint64_t early = sectionBytes(path("a.vips"));
    EXPECT_GT(early, 0u);
    EXPECT_EQ(sectionBytes(path("b.vips")), early);
}
