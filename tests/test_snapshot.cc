/**
 * @file
 * Checkpoint/restore tests: bit-identical resume across every system
 * configuration, rejection of skewed or damaged snapshots, and the
 * metrics CSV append-resume path.
 *
 * The gold standard everywhere: a run restored from a mid-run
 * snapshot must finish with a digest stream and a stats dump that are
 * byte-for-byte those of the uninterrupted run.  No tolerances.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "obs/latency.hh"
#include "sim/snapshot.hh"
#include "sim/state_io.hh"

namespace vip
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory per test, removed on teardown. */
class SnapshotTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = fs::temp_directory_path() /
               ("vip-snapshot-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }

    void TearDown() override { fs::remove_all(_dir); }

    std::string
    path(const std::string &name) const
    {
        return (_dir / name).string();
    }

    fs::path _dir;
};

SocConfig
auditedCfg(SystemConfig sc, double seconds = 0.4)
{
    SocConfig cfg;
    cfg.system = sc;
    cfg.simSeconds = seconds;
    cfg.audit.mode = AuditMode::Periodic;
    cfg.audit.periodMs = 1.0;
    return cfg;
}

/** Final stats dump + digest-stream digest of a finished run. */
struct RunOutput
{
    std::string statsJson;
    std::uint64_t streamDigest = 0;
};

RunOutput
outputs(Simulation &sim)
{
    RunOutput o;
    std::ostringstream os;
    sim.writeStatsJson(os);
    o.statsJson = os.str();
    o.streamDigest = sim.auditor().streamDigest();
    return o;
}

/**
 * DRAM time-at-bandwidth bins (Fig 3): restored state that no
 * registry path exports, so the stats.json comparison cannot see it.
 */
std::vector<std::uint64_t>
bwBins(Simulation &sim)
{
    const auto &h = sim.memory().bwHistogram();
    std::vector<std::uint64_t> bins;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        bins.push_back(h.binCount(i));
    return bins;
}

std::string
readFile(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST_F(SnapshotTest, RoundTripBitIdenticalAllConfigs)
{
    // W4 (Skype + video playback) under every system configuration:
    // checkpoint at three mid-run points, restore each, and require
    // the final digest stream and stats dump to be byte-identical to
    // the uninterrupted run's.
    // All five configurations are busy (never quiescent) for long
    // stretches of the 0.4 s run; this window has quiescent points
    // under every one of them (see the VIP_QUIESCENCE_PROBE env var).
    const Tick points[] = {fromMs(270), fromMs(300), fromMs(330)};
    for (auto sc : kAllConfigs) {
        SCOPED_TRACE(systemConfigName(sc));
        auto wl = WorkloadCatalog::byIndex(4);

        Simulation ref(auditedCfg(sc), wl);
        ref.run();
        RunOutput want = outputs(ref);

        std::vector<std::string> snaps;
        {
            Simulation writer(auditedCfg(sc), wl);
            for (std::size_t i = 0; i < std::size(points); ++i) {
                snaps.push_back(path(std::string(systemConfigName(sc)) +
                                     "-" + std::to_string(i) +
                                     ".vips"));
                writer.checkpointAt(points[i], snaps.back());
            }
            writer.run();
            // All three quiescent points must have been found, and
            // the checkpoint writes must not have perturbed the run.
            EXPECT_EQ(writer.checkpointsWritten(), std::size(points));
            RunOutput got = outputs(writer);
            EXPECT_EQ(got.statsJson, want.statsJson);
            EXPECT_EQ(got.streamDigest, want.streamDigest);
        }

        for (const auto &snap : snaps) {
            SCOPED_TRACE(snap);
            auto meta = SnapshotReader::readMeta(snap);
            EXPECT_GT(meta.tick, 0u);

            SocConfig cfg = auditedCfg(sc);
            cfg.restorePath = snap;
            Simulation resumed(cfg, wl);
            resumed.run();
            RunOutput got = outputs(resumed);
            EXPECT_EQ(got.statsJson, want.statsJson);
            EXPECT_EQ(got.streamDigest, want.streamDigest);
            EXPECT_EQ(bwBins(resumed), bwBins(ref));
        }
    }
}

TEST_F(SnapshotTest, RoundTripWithFaultsAndFrameTrace)
{
    // Baseline x W7 under the light fault preset with the frame trace
    // recorded: the "fault" section (injector RNG and counters) and
    // the trace records in the "sim" section must resume exactly.
    auto wl = WorkloadCatalog::byIndex(7);
    auto cfgFor = [] {
        SocConfig cfg = auditedCfg(SystemConfig::Baseline);
        cfg.fault = FaultPlan::preset("light");
        cfg.recordTrace = true;
        return cfg;
    };
    auto traceCsv = [](const RunStats &s) {
        std::ostringstream os;
        s.trace.dumpCsv(os);
        return os.str();
    };

    Simulation ref(cfgFor(), wl);
    RunStats refStats = ref.run();
    RunOutput want = outputs(ref);
    const std::string wantTrace = traceCsv(refStats);
    ASSERT_GT(refStats.faults.injected(), 0u);
    ASSERT_GT(refStats.trace.size(), 0u);

    // Quiescent points are sparse here (a 100 ms cadence first lands
    // at 231.8 ms); each of these requests meets a distinct one.
    const Tick points[] = {fromMs(100), fromMs(250), fromMs(320)};
    std::vector<std::string> snaps;
    {
        Simulation writer(cfgFor(), wl);
        for (std::size_t i = 0; i < std::size(points); ++i) {
            snaps.push_back(path("w7-" + std::to_string(i) + ".vips"));
            writer.checkpointAt(points[i], snaps.back());
        }
        RunStats got = writer.run();
        ASSERT_EQ(writer.checkpointsWritten(), std::size(points));
        EXPECT_EQ(outputs(writer).statsJson, want.statsJson);
        EXPECT_EQ(traceCsv(got), wantTrace);
    }

    Tick last = 0;
    for (const auto &snap : snaps) {
        SCOPED_TRACE(snap);
        const Tick tick = SnapshotReader::readMeta(snap).tick;
        EXPECT_GT(tick, last);
        last = tick;

        SocConfig cfg = cfgFor();
        cfg.restorePath = snap;
        Simulation resumed(cfg, wl);
        RunStats got = resumed.run();
        RunOutput out = outputs(resumed);
        EXPECT_EQ(out.statsJson, want.statsJson);
        EXPECT_EQ(out.streamDigest, want.streamDigest);
        EXPECT_EQ(traceCsv(got), wantTrace);
    }
}

/** Writes one crafted, checksum-valid snapshot section. */
std::string
writeSection(const std::string &file, const std::string &section,
             const std::function<void(SnapshotWriter &)> &fill)
{
    SnapshotWriter w;
    w.beginSection(section);
    fill(w);
    w.writeFile(file, SnapshotMeta{});
    return file;
}

/** The SimFatal message @p load throws, or "" when it does not. */
std::string
fatalOf(const std::function<void()> &load)
{
    try {
        load();
    } catch (const SimFatal &e) {
        return e.what();
    }
    return "";
}

TEST_F(SnapshotTest, BoundsCountsAndNamesMismatches)
{
    EventQueue eq;
    auto loadFrom = [&](const std::string &file,
                        const std::string &section,
                        const std::function<void(StateIO &)> &body) {
        SnapshotReader r(file);
        StateIO io(r, eq);
        io.section(section, [&] { body(io); });
    };

    // A pending-event id count of 2^62 and a histogram bin count of
    // 2^32 - 1 in otherwise valid files: each count exceeds the bytes
    // left in its section, so it is rejected before anything is
    // sized from it.
    auto ids = writeSection(path("ids.vips"), "kernel",
                            [](SnapshotWriter &w) {
        for (int i = 0; i < 4; ++i)
            w.u64(1);
        w.u64(std::uint64_t(1) << 62);
    });
    std::string msg = fatalOf(
        [&] { loadFrom(ids, "kernel", [&](StateIO &io) { eq.io(io); }); });
    EXPECT_NE(msg.find("section 'kernel'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4611686018427387904"), std::string::npos) << msg;

    auto bins = writeSection(path("bins.vips"), "latency",
                             [](SnapshotWriter &w) {
        w.u32(0xFFFFFFFFu);
    });
    LogHistogram h;
    msg = fatalOf([&] {
        loadFrom(bins, "latency", [&](StateIO &io) { h.io(io); });
    });
    EXPECT_NE(msg.find("section 'latency'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4294967295"), std::string::npos) << msg;

    // Configuration-fixed parts name the owner and both values.
    auto fixed = writeSection(path("fixed.vips"), "fixed",
                              [](SnapshotWriter &w) {
        w.u32(3);
        w.str("alpha");
        w.b(true);
    });
    msg = fatalOf([&] {
        loadFrom(fixed, "fixed",
                 [](StateIO &io) { io.shape("widget", "lanes", 5); });
    });
    EXPECT_NE(msg.find("widget: snapshot has 3 lanes, this run has 5"),
              std::string::npos) << msg;
    msg = fatalOf([&] {
        loadFrom(fixed, "fixed", [](StateIO &io) {
            io.shape("widget", "lanes", 3);
            io.expect("widget", "name", std::string("beta"));
        });
    });
    EXPECT_NE(msg.find("widget: snapshot name 'alpha' != this run's "
                       "'beta'"),
              std::string::npos) << msg;
    msg = fatalOf([&] {
        loadFrom(fixed, "fixed", [](StateIO &io) {
            io.shape("widget", "lanes", 3);
            io.expect("widget", "name", std::string("alpha"));
            io.presence("widget", "spill buffer", false);
        });
    });
    EXPECT_NE(msg.find("widget: snapshot has spill buffer, this run "
                       "has none"),
              std::string::npos) << msg;
    // All three matching load cleanly.
    EXPECT_EQ(fatalOf([&] {
        loadFrom(fixed, "fixed", [](StateIO &io) {
            io.shape("widget", "lanes", 3);
            io.expect("widget", "name", std::string("alpha"));
            EXPECT_TRUE(io.presence("widget", "spill buffer", true));
        });
    }), "");
}

TEST_F(SnapshotTest, RejectsVersionSkew)
{
    auto snap = path("a.vips");
    {
        Simulation sim(auditedCfg(SystemConfig::Baseline, 0.2),
                       WorkloadCatalog::byIndex(4));
        sim.checkpointAt(fromMs(100), snap);
        sim.run();
        ASSERT_EQ(sim.checkpointsWritten(), 1u);
    }

    // Bump the format version field (bytes 4..7, after the magic).
    auto bytes = readFile(snap);
    ASSERT_GT(bytes.size(), 8u);
    bytes[4] = static_cast<char>(bytes[4] + 1);
    auto skewed = path("skewed.vips");
    std::ofstream(skewed, std::ios::binary) << bytes;

    EXPECT_THROW(SnapshotReader::readMeta(skewed), SimFatal);

    SocConfig cfg = auditedCfg(SystemConfig::Baseline, 0.2);
    cfg.restorePath = skewed;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    EXPECT_THROW(sim.run(), SimFatal);
}

TEST_F(SnapshotTest, RejectsTruncatedFile)
{
    auto snap = path("a.vips");
    {
        Simulation sim(auditedCfg(SystemConfig::Baseline, 0.2),
                       WorkloadCatalog::byIndex(4));
        sim.checkpointAt(fromMs(100), snap);
        sim.run();
        ASSERT_EQ(sim.checkpointsWritten(), 1u);
    }

    auto bytes = readFile(snap);
    auto truncated = path("truncated.vips");
    std::ofstream(truncated, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);

    SocConfig cfg = auditedCfg(SystemConfig::Baseline, 0.2);
    cfg.restorePath = truncated;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    EXPECT_THROW(sim.run(), SimFatal);
}

TEST_F(SnapshotTest, RejectsIdentitySkew)
{
    auto snap = path("a.vips");
    {
        Simulation sim(auditedCfg(SystemConfig::Baseline, 0.2),
                       WorkloadCatalog::byIndex(4));
        sim.checkpointAt(fromMs(100), snap);
        sim.run();
        ASSERT_EQ(sim.checkpointsWritten(), 1u);
    }

    // Wrong system configuration.
    {
        SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.2);
        cfg.restorePath = snap;
        Simulation sim(cfg, WorkloadCatalog::byIndex(4));
        EXPECT_THROW(sim.run(), SimFatal);
    }
    // Wrong seed.
    {
        SocConfig cfg = auditedCfg(SystemConfig::Baseline, 0.2);
        cfg.seed = 99;
        cfg.restorePath = snap;
        Simulation sim(cfg, WorkloadCatalog::byIndex(4));
        EXPECT_THROW(sim.run(), SimFatal);
    }
    // Wrong workload.
    {
        SocConfig cfg = auditedCfg(SystemConfig::Baseline, 0.2);
        cfg.restorePath = snap;
        Simulation sim(cfg, WorkloadCatalog::byIndex(1));
        EXPECT_THROW(sim.run(), SimFatal);
    }
    // Wrong duration.
    {
        SocConfig cfg = auditedCfg(SystemConfig::Baseline, 0.3);
        cfg.restorePath = snap;
        Simulation sim(cfg, WorkloadCatalog::byIndex(4));
        EXPECT_THROW(sim.run(), SimFatal);
    }
}

TEST_F(SnapshotTest, MetricsCsvResumesWithoutDuplicateHeader)
{
    auto wl = WorkloadCatalog::byIndex(4);
    auto refCsv = path("ref.csv");
    auto csv = path("resume.csv");
    auto snap = path("a.vips");

    SocConfig base = auditedCfg(SystemConfig::Baseline, 0.2);
    base.ts.intervalMs = 1.0;

    // Uninterrupted reference CSV.
    {
        SocConfig cfg = base;
        cfg.ts.metricsOut = refCsv;
        Simulation sim(cfg, wl);
        sim.run();
    }
    // Checkpointed run writing the CSV that will be "interrupted".
    {
        SocConfig cfg = base;
        cfg.ts.metricsOut = csv;
        Simulation sim(cfg, wl);
        sim.checkpointAt(fromMs(100), snap);
        sim.run();
        ASSERT_EQ(sim.checkpointsWritten(), 1u);
    }

    // Simulate a kill right at the checkpoint: drop every data row
    // sampled after the snapshot tick.
    double ckptMs = toMs(SnapshotReader::readMeta(snap).tick);
    std::vector<std::string> kept;
    {
        std::ifstream in(csv);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#' ||
                line.rfind("tick_ms", 0) == 0) {
                kept.push_back(line);
                continue;
            }
            if (std::stod(line) <= ckptMs)
                kept.push_back(line);
        }
    }
    {
        std::ofstream out(csv, std::ios::trunc);
        for (const auto &l : kept)
            out << l << "\n";
    }

    // Resume: the sampler must append to the CSV, not rewrite it.
    {
        SocConfig cfg = base;
        cfg.ts.metricsOut = csv;
        cfg.restorePath = snap;
        Simulation sim(cfg, wl);
        sim.run();
    }

    std::ifstream ref(refCsv), res(csv);
    std::string rline, sline;
    std::size_t headers = 0;
    bool sawResumeStamp = false;
    std::vector<std::string> refRows, resRows;
    while (std::getline(ref, rline)) {
        if (rline.empty() || rline[0] == '#')
            continue;
        if (rline.rfind("tick_ms", 0) == 0)
            continue;
        refRows.push_back(rline);
    }
    while (std::getline(res, sline)) {
        if (sline.rfind("# resumed-at-tick=", 0) == 0) {
            sawResumeStamp = true;
            continue;
        }
        if (sline.empty() || sline[0] == '#')
            continue;
        if (sline.rfind("tick_ms", 0) == 0) {
            ++headers;
            continue;
        }
        resRows.push_back(sline);
    }
    EXPECT_EQ(headers, 1u);
    EXPECT_TRUE(sawResumeStamp);
    // Killed-at-checkpoint rows + resumed rows == uninterrupted rows.
    EXPECT_EQ(resRows, refRows);
}

} // namespace
} // namespace vip
