/**
 * @file
 * Tests for the unified stats registry, the stats.json round trip
 * through vip_stats_diff's comparison library, and the postmortem
 * flight recorder.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/simulation.hh"
#include "obs/flight_recorder.hh"
#include "obs/stats_io.hh"

namespace vip
{
namespace
{

namespace fs = std::filesystem;

TEST(StatRegistry, DuplicatePathPanics)
{
    StatRegistry r;
    r.addExact("a.b", "first", "", [] { return 1.0; });
    EXPECT_THROW(r.addExact("a.b", "second", "", [] { return 2.0; }),
                 SimPanic);
    EXPECT_TRUE(r.has("a.b"));
    EXPECT_EQ(r.size(), 1u);
}

TEST(StatRegistry, WriteJsonRoundTripsThroughParser)
{
    StatRegistry r;
    r.addExact("z.last", "sorted last", "events", [] { return 7.0; });
    r.addTiming("a.first", "sorted first", "ms", [] { return 1.5; });

    std::ostringstream os;
    r.writeJson(os, {{"workload", "T"}, {"seed", "1"}});

    std::istringstream is(os.str());
    StatsFile f = parseStatsJson(is);
    EXPECT_EQ(f.schemaVersion, StatRegistry::kStatsSchemaVersion);
    EXPECT_EQ(f.run.at("workload"), "T");
    ASSERT_EQ(f.stats.size(), 2u);
    // Dump order is sorted by path, independent of insert order.
    EXPECT_EQ(f.stats[0].path, "a.first");
    EXPECT_EQ(f.stats[0].tol, "pct:5");
    EXPECT_EQ(f.stats[0].unit, "ms");
    EXPECT_EQ(f.stats[1].path, "z.last");
    EXPECT_EQ(f.stats[1].tol, "exact");
    EXPECT_EQ(f.stats[1].desc, "sorted last");
    EXPECT_DOUBLE_EQ(f.stats[1].value, 7.0);
}

TEST(StatsDiff, SelfComparisonHasZeroViolations)
{
    StatRegistry r;
    r.addExact("a", "x", "", [] { return 3.0; });
    r.addTiming("b", "y", "ms", [] { return 0.25; });
    std::ostringstream os;
    r.writeJson(os, {{"seed", "1"}});

    std::istringstream i1(os.str()), i2(os.str());
    auto cmp = compareStats(parseStatsJson(i1), parseStatsJson(i2));
    EXPECT_TRUE(cmp.ok);
    EXPECT_EQ(cmp.compared, 2u);
    EXPECT_TRUE(cmp.violations.empty());
}

TEST(StatsDiff, ViolationNamesTheOffendingPath)
{
    StatsFile base, cand;
    base.schemaVersion = cand.schemaVersion = 1;
    base.stats.push_back({"ip.vd.jobs", 100.0, "jobs", "exact", ""});
    cand.stats.push_back({"ip.vd.jobs", 101.0, "jobs", "exact", ""});

    auto cmp = compareStats(base, cand);
    EXPECT_FALSE(cmp.ok);
    ASSERT_EQ(cmp.violations.size(), 1u);
    EXPECT_NE(cmp.violations[0].find("ip.vd.jobs"),
              std::string::npos);
}

TEST(StatsDiff, PercentBandAllowsDriftWithinTolerance)
{
    EXPECT_TRUE(valuesWithinTolerance("pct:5", 100.0, 104.0));
    EXPECT_FALSE(valuesWithinTolerance("pct:5", 100.0, 106.0));
    // Near-zero values sit under the absolute floor.
    EXPECT_TRUE(valuesWithinTolerance("pct:5", 0.0, 1e-12));
    EXPECT_TRUE(valuesWithinTolerance("exact", 2.0, 2.0));
    EXPECT_FALSE(valuesWithinTolerance("exact", 2.0, 2.0000001));
}

TEST(StatsDiff, MissingAndExtraStatsAreViolations)
{
    StatsFile base, cand;
    base.schemaVersion = cand.schemaVersion = 1;
    base.stats.push_back({"gone", 1.0, "", "exact", ""});
    cand.stats.push_back({"new", 1.0, "", "exact", ""});

    auto cmp = compareStats(base, cand);
    EXPECT_FALSE(cmp.ok);
    EXPECT_EQ(cmp.violations.size(), 2u);
}

TEST(StatsDiff, OverridesPreferLongestMatch)
{
    StatsFile base, cand;
    base.schemaVersion = cand.schemaVersion = 1;
    base.stats.push_back({"dram.bytes", 100.0, "B", "exact", ""});
    cand.stats.push_back({"dram.bytes", 103.0, "B", "exact", ""});

    // Prefix override relaxes the whole subsystem...
    ToleranceOverrides o1{{"dram.*", "pct:5"}};
    EXPECT_TRUE(compareStats(base, cand, o1).ok);
    // ...but an exact-path override beats the prefix.
    ToleranceOverrides o2{{"dram.*", "pct:5"},
                          {"dram.bytes", "exact"}};
    EXPECT_FALSE(compareStats(base, cand, o2).ok);
}

TEST(StatsDiff, RunContextMismatchIsAViolation)
{
    StatsFile base, cand;
    base.schemaVersion = cand.schemaVersion = 1;
    base.run["workload"] = "W4";
    cand.run["workload"] = "W7";
    auto cmp = compareStats(base, cand);
    EXPECT_FALSE(cmp.ok);
}

TEST(StatRegistry, FullRunCoversEverySubsystem)
{
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.05;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    std::ostringstream os;
    sim.writeStatsJson(os);
    std::istringstream is(os.str());
    StatsFile f = parseStatsJson(is);

    std::set<std::string> roots;
    for (const auto &s : f.stats) {
        roots.insert(s.path.substr(0, s.path.find('.')));
        EXPECT_FALSE(s.tol.empty()) << s.path;
        EXPECT_FALSE(s.desc.empty()) << s.path;
    }
    for (const char *want :
         {"ip", "sa", "dram", "cpu", "flow", "fault", "overload",
          "power", "latency", "sim", "audit"})
        EXPECT_TRUE(roots.count(want)) << "missing subsystem " << want;

    // Spot-check the paths named in the design doc.
    EXPECT_TRUE(f.find("ip.vd.busy_ms"));
    EXPECT_TRUE(f.find("dram.ch0.row_hits"));
    EXPECT_TRUE(f.find("sa.bytes_forwarded"));
    EXPECT_TRUE(f.find("cpu.core0.instructions"));

    // The dump round-trips with zero self-diffs.
    std::istringstream i1(os.str()), i2(os.str());
    auto cmp = compareStats(parseStatsJson(i1), parseStatsJson(i2));
    EXPECT_TRUE(cmp.ok);
    EXPECT_GE(cmp.compared, 100u);
}

TEST(StatRegistry, RegistryAndStatsOutAreDigestNeutral)
{
    auto digestOf = [](bool observability) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.05;
        cfg.audit = AuditConfig::parse("periodic:5");
        if (observability) {
            cfg.statsOut = "unused-by-the-library"; // vip_sim writes it
            cfg.postmortemDir =
                (fs::path(::testing::TempDir()) / "pm-neutral")
                    .string();
        }
        Simulation sim(cfg, WorkloadCatalog::byIndex(4));
        auto r = sim.run();
        std::ostringstream os;
        sim.writeStatsJson(os);
        return r.digestStreamHash;
    };
    EXPECT_EQ(digestOf(false), digestOf(true));
}

TEST(FlightRecorder, WedgedRunLeavesACompleteCrashBundle)
{
    fs::path dir = fs::path(::testing::TempDir()) / "vip-crash-bundle";
    fs::remove_all(dir);

    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.2;
    cfg.noProgressSec = 0.05;
    cfg.postmortemDir = dir.string();
    // Hang every engine with no watchdog: the no-progress guard must
    // abort the run and the flight recorder must capture it.
    cfg.fault.engineHangProb = 1.0;
    cfg.fault.watchdogTimeout = 0;

    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    EXPECT_THROW(sim.run(), SimFatal);

    ASSERT_TRUE(fs::exists(dir / "crash.json"));
    ASSERT_TRUE(fs::exists(dir / "stats.json"));
    ASSERT_TRUE(fs::exists(dir / "trace-tail.json"));

    // stats.json is a valid dump with the run's counters at death.
    std::ifstream sin(dir / "stats.json");
    StatsFile f = parseStatsJson(sin);
    ASSERT_TRUE(f.find("fault.engine_hangs"));
    EXPECT_GT(f.find("fault.engine_hangs")->value, 0.0);
    EXPECT_EQ(f.run.at("workload"), "W4");

    // crash.json names the failure kind and a nonzero state digest.
    std::ifstream cin(dir / "crash.json");
    std::stringstream buf;
    buf << cin.rdbuf();
    EXPECT_NE(buf.str().find("\"kind\": \"fatal\""),
              std::string::npos);
    EXPECT_NE(buf.str().find("no progress"), std::string::npos);
    EXPECT_NE(buf.str().find("\"stateDigest\": \"0x"),
              std::string::npos);
    fs::remove_all(dir);
}

TEST(FlightRecorder, MetricsStreamSurvivesTheCrash)
{
    fs::path dir = fs::path(::testing::TempDir()) / "vip-crash-metrics";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string csv = (dir / "metrics.csv").string();

    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.2;
    cfg.noProgressSec = 0.05;
    cfg.postmortemDir = dir.string();
    cfg.ts.metricsOut = csv;
    cfg.ts.intervalMs = 1.0;
    cfg.fault.engineHangProb = 1.0;
    cfg.fault.watchdogTimeout = 0;

    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    EXPECT_THROW(sim.run(), SimFatal);

    // Rows were flushed per-sample, so the series is on disk even
    // though the run died before any end-of-run rewrite.
    std::ifstream in(csv);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t rows = 0;
    bool header = false;
    while (std::getline(in, line)) {
        if (line.rfind("tick_ms", 0) == 0)
            header = true;
        else if (!line.empty() && line[0] != '#')
            ++rows;
    }
    EXPECT_TRUE(header);
    EXPECT_GT(rows, 10u);

    // crash.json points back at the streamed CSV.
    std::ifstream cin(dir / "crash.json");
    std::stringstream buf;
    buf << cin.rdbuf();
    EXPECT_NE(buf.str().find(csv), std::string::npos);
    fs::remove_all(dir);
}

} // namespace
} // namespace vip
