/**
 * @file
 * Fleet supervision tests: the scheduler's retry state machine under
 * a fake clock, decorrelated-jitter backoff, worker argv
 * construction, the stats merge, and whole-fleet runs whose workers
 * are real vip_sim processes (VIP_SIM_PATH) — including graceful
 * degradation (failed jobs never abort a sweep), a job that cannot
 * even launch, the hang watchdog, and shards bit-identical to an
 * in-process run — and the journal fold every report is, over a
 * checked-in fixture.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "fleet/backoff.hh"
#include "fleet/supervisor.hh"
#include "obs/json.hh"
#include "obs/stats_merge.hh"
#include "sim/logging.hh"

namespace vip
{
namespace fleet
{
namespace
{

namespace fs = std::filesystem;

FleetJob
job(const std::string &config, const std::string &workload,
    std::uint64_t seed)
{
    FleetJob j;
    j.config = config;
    j.workload = workload;
    j.seed = seed;
    j.id = config + "-" + workload + "-s" + std::to_string(seed);
    return j;
}

/** Fresh scratch directory per test, removed on teardown. */
class FleetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = fs::temp_directory_path() /
               ("vip-fleet-" +
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

    /** A quiet sweep into <dir>/out whose workers are vip_sim. */
    FleetOptions
    options() const
    {
        FleetOptions opt;
        opt.outDir = path("out");
        opt.vipSimPath = VIP_SIM_PATH;
        opt.verbose = false;
        return opt;
    }

    fs::path _dir;
};

std::string
readFile(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------
// Scheduler state machine (fake clock, no processes involved).
// ---------------------------------------------------------------

TEST(FleetScheduler, ClaimsPendingJobsInSpecOrder)
{
    FleetPolicy pol;
    pol.maxAttempts = 3;
    FleetScheduler s({job("vip", "A1", 1), job("vip", "A1", 2)}, pol);
    const std::size_t a = s.claimNext(0.0);
    const std::size_t b = s.claimNext(0.0);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(s.claimNext(0.0), FleetScheduler::npos);
    EXPECT_EQ(s.job(0).attempts, 1);
    EXPECT_EQ(s.job(0).state, JobState::Running);
    EXPECT_EQ(s.job(1).state, JobState::Running);
    EXPECT_FALSE(s.allSettled());
}

TEST(FleetScheduler, FailureBacksOffExponentiallyThenRetries)
{
    FleetPolicy pol;
    pol.maxAttempts = 3;
    pol.backoffBaseMs = 100.0;
    pol.backoffCapMs = 1000.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    const double d1 = retryDelayMs(pol, "vip-A1-s1", 1);
    const double d2 = retryDelayMs(pol, "vip-A1-s1", 2);

    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 10.0, false);
    EXPECT_EQ(s.job(0).state, JobState::Backoff);
    EXPECT_DOUBLE_EQ(s.job(0).readyAtMs, 10.0 + d1);

    // Not eligible until the delay elapses.
    EXPECT_EQ(s.claimNext(10.0), FleetScheduler::npos);
    EXPECT_EQ(s.claimNext(10.0 + d1 - 0.1), FleetScheduler::npos);
    ASSERT_EQ(s.claimNext(10.0 + d1), 0u);
    EXPECT_EQ(s.job(0).attempts, 2);

    // The second failure waits out the second rung.
    s.onFailure(0, 500.0, false);
    EXPECT_DOUBLE_EQ(s.job(0).readyAtMs, 500.0 + d2);
    ASSERT_EQ(s.claimNext(500.0 + d2), 0u);

    // Third failure hits the attempt cap: terminal, sweep settles.
    s.onFailure(0, 2000.0, false);
    EXPECT_EQ(s.job(0).state, JobState::Failed);
    EXPECT_TRUE(s.allSettled());
    EXPECT_EQ(s.claimNext(1e9), FleetScheduler::npos);
}

TEST(FleetScheduler, ResumableFailureMarksNextAttempt)
{
    FleetPolicy pol;
    pol.maxAttempts = 3;
    pol.backoffBaseMs = 0.0; // retry immediately
    FleetScheduler s({job("vip", "A1", 1)}, pol);

    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 1.0, true);
    EXPECT_TRUE(s.job(0).resumeNext);
    ASSERT_EQ(s.claimNext(1.0), 0u);
    EXPECT_TRUE(s.job(0).resumeNext); // this attempt restores
    s.onSuccess(0);
    EXPECT_EQ(s.job(0).state, JobState::Done);
    EXPECT_FALSE(s.job(0).resumeNext);
    EXPECT_TRUE(s.allSettled());
}

TEST(FleetScheduler, PolicyCanForbidResume)
{
    FleetPolicy pol;
    pol.resume = false;
    pol.backoffBaseMs = 0.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 1.0, true);
    EXPECT_FALSE(s.job(0).resumeNext); // checkpoint exists, policy no
}

TEST(FleetScheduler, PendingJobsWinOverEligibleBackoffs)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 0.0;
    FleetScheduler s({job("vip", "A1", 1), job("vip", "A1", 2)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 1.0, false);
    // Job 0 is eligible again, but fresh job 1 goes first.
    EXPECT_EQ(s.claimNext(2.0), 1u);
    EXPECT_EQ(s.claimNext(2.0), 0u);
}

// ---------------------------------------------------------------
// Decorrelated-jitter backoff.
// ---------------------------------------------------------------

TEST(FleetBackoff, JitterIsDeterministicBoundedAndDecorrelated)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 100.0;
    pol.backoffCapMs = 1000.0;
    for (int k = 1; k <= 8; ++k) {
        const double d = retryDelayMs(pol, "vip-A1-s1", k);
        EXPECT_EQ(d, retryDelayMs(pol, "vip-A1-s1", k)); // pure
        EXPECT_GE(d, pol.backoffBaseMs);
        EXPECT_LE(d, pol.backoffCapMs);
    }
    // Different jobs failing on the same attempt spread out rather
    // than retrying in lockstep.
    bool differs = false;
    for (std::uint64_t seed = 1; seed <= 8 && !differs; ++seed)
        differs = retryDelayMs(pol, "vip-A1-s" + std::to_string(seed),
                               2) !=
                  retryDelayMs(pol, "vip-A1-s" +
                               std::to_string(seed + 1), 2);
    EXPECT_TRUE(differs);
    // Unit draws live in [0, 1).
    for (int k = 1; k <= 64; ++k) {
        const double u = backoffUnitDraw("j", k);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

// ---------------------------------------------------------------
// Worker argv and shard layout.
// ---------------------------------------------------------------

TEST(FleetWorkerArgs, ArgsAreAttemptRelativeAndHostIndependent)
{
    // Artifact paths in the argv are attempt-relative names: the
    // worker runs inside its attempt directory, so the same argv
    // serves every attempt.  Checkpoint identity covers audit spec
    // and metrics interval, so every attempt (and any reference
    // rerun) MUST repeat the same flags; the supervisor appends
    // --restore to a resuming attempt.
    JobSpec spec;
    spec.seconds = 0.25;
    spec.audit = "periodic:1";
    spec.fleet.digests = true;
    spec.fleet.heartbeatIntervalMs = 2.0;
    spec.fleet.checkpointEveryMs = 25.0;
    FleetJob j = job("vip", "W4", 7);
    j.faultPlan = "light";

    const auto args = workerArgs(spec, j);
    auto has = [&args](const std::string &flag,
                       const std::string &val) {
        for (std::size_t i = 0; i + 1 < args.size(); ++i)
            if (args[i] == flag && args[i + 1] == val)
                return true;
        return false;
    };
    EXPECT_TRUE(has("--workload", "W4"));
    EXPECT_TRUE(has("--config", "vip"));
    EXPECT_TRUE(has("--seed", "7"));
    EXPECT_TRUE(has("--seconds", "0.25"));
    EXPECT_TRUE(has("--fault-plan", "light"));
    EXPECT_TRUE(has("--audit", "periodic:1"));
    EXPECT_TRUE(has("--digest-out", attempt_files::kDigest));
    EXPECT_TRUE(has("--metrics-out", attempt_files::kMetrics));
    EXPECT_TRUE(has("--metrics-interval-ms", "2"));
    EXPECT_TRUE(has("--stats-out", attempt_files::kStats));
    EXPECT_TRUE(has("--postmortem-dir", attempt_files::kPmDir));
    EXPECT_TRUE(has("--checkpoint-every-ms", "25"));
    for (const auto &a : args) {
        EXPECT_NE(a, "--restore"); // the supervisor's job
        EXPECT_EQ(a.find('/'), std::string::npos)
            << "path outside the attempt directory in argv: " << a;
    }
}

TEST(FleetWorkerArgs, OptionalFlagsStayOffWhenUnconfigured)
{
    JobSpec spec;
    spec.fleet.digests = false;
    spec.fleet.heartbeatIntervalMs = 0.0;
    const FleetJob j = job("baseline", "A1", 1);
    const auto args = workerArgs(spec, j);
    for (const auto &a : args) {
        EXPECT_NE(a, "--digest-out");
        EXPECT_NE(a, "--metrics-out");
        EXPECT_NE(a, "--audit");
        EXPECT_NE(a, "--fault-plan");
        EXPECT_NE(a, "--restore");
    }
}

TEST(FleetWorkerArgs, ShardLayoutIsPerJob)
{
    const ShardPaths p = shardPaths("runs/x", "vip-A1-s1");
    EXPECT_EQ(p.dir, "runs/x/shards/vip-A1-s1");
    EXPECT_EQ(p.statsJson, "runs/x/shards/vip-A1-s1/stats.json");
    EXPECT_EQ(p.checkpoint,
              "runs/x/shards/vip-A1-s1/pm/checkpoint.vips");
    EXPECT_NE(shardPaths("runs/x", "a").dir,
              shardPaths("runs/x", "b").dir);
    // Attempts stage under the shard, keyed by attempt number, so
    // two attempts of one job can never collide.
    EXPECT_EQ(attemptDir("runs/x", "vip-A1-s1", 7),
              "runs/x/shards/vip-A1-s1/a7");
    EXPECT_NE(attemptDir("runs/x", "j", 1),
              attemptDir("runs/x", "j", 2));
}

// ---------------------------------------------------------------
// Stats merge.
// ---------------------------------------------------------------

TEST(StatsMerge, NearestRankPercentiles)
{
    const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentileSorted(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 25.0), 3.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 90.0), 9.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 99.0), 10.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(percentileSorted({42.0}, 50.0), 42.0);
}

TEST(StatsMerge, AggregatesUnionOfHeterogeneousShards)
{
    StatsFile a, b, c;
    a.stats.push_back({"sim.frames", 100.0, "frames", "exact", ""});
    a.stats.push_back({"ip.gpu.util", 0.5, "ratio", "pct:5", ""});
    b.stats.push_back({"sim.frames", 200.0, "frames", "exact", ""});
    // Shard c lacks ip.gpu.util (different config builds fewer IPs).
    c.stats.push_back({"sim.frames", 300.0, "frames", "exact", ""});

    const auto agg = aggregateStats({&a, &b, &c});
    ASSERT_EQ(agg.size(), 2u);
    const StatAggregate &f = agg.at("sim.frames");
    EXPECT_EQ(f.count, 3u);
    EXPECT_DOUBLE_EQ(f.min, 100.0);
    EXPECT_DOUBLE_EQ(f.max, 300.0);
    EXPECT_DOUBLE_EQ(f.mean, 200.0);
    EXPECT_DOUBLE_EQ(f.p50, 200.0);
    EXPECT_EQ(f.unit, "frames");
    // The sparse path aggregates over contributors only.
    EXPECT_EQ(agg.at("ip.gpu.util").count, 1u);
    EXPECT_DOUBLE_EQ(agg.at("ip.gpu.util").mean, 0.5);

    EXPECT_TRUE(aggregateStats({}).empty());
}

TEST(StatsMerge, JsonWriterEmitsEveryPath)
{
    StatsFile a;
    a.stats.push_back({"x.y", 1.0, "u", "exact", ""});
    std::ostringstream os;
    writeAggregateJson(os, aggregateStats({&a}));
    EXPECT_NE(os.str().find("\"x.y\""), std::string::npos);
    EXPECT_NE(os.str().find("\"count\": 1"), std::string::npos);
}

// ---------------------------------------------------------------
// Whole-fleet runs (every attempt is a vip_sim process).
// ---------------------------------------------------------------

JobSpec
smallSpec(double seconds)
{
    JobSpec spec;
    spec.name = "unit";
    spec.seconds = seconds;
    spec.audit = "periodic:1";
    spec.fleet.workers = 2;
    spec.fleet.maxAttempts = 2;
    spec.fleet.backoffBaseMs = 1.0;
    spec.fleet.backoffCapMs = 2.0;
    spec.fleet.heartbeatDeadlineMs = 0.0; // no watchdog in units
    spec.fleet.heartbeatIntervalMs = 1.0;
    spec.fleet.checkpointEveryMs = 20.0;
    return spec;
}

TEST_F(FleetTest, FleetShardMatchesDirectRunBitForBit)
{
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1), job("baseline", "A1", 1)};

    FleetOptions opt = options();
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();
    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 2u);
    EXPECT_EQ(out.failed, 0u);
    EXPECT_TRUE(fs::exists(path("out/report.json")));

    // Mirror the worker's exact configuration in this process; the
    // shard's stats dump must be byte-identical.
    SocConfig cfg;
    cfg.simSeconds = 0.05;
    cfg.seed = 1;
    cfg.system = SystemConfig::VIP;
    cfg.audit = AuditConfig::parse("periodic:1");
    cfg.ts.metricsOut = path("mirror.csv");
    cfg.ts.intervalMs = 1.0;
    cfg.postmortemDir = path("mirror-pm");
    cfg.checkpointEveryMs = 20.0;
    Simulation sim(cfg, WorkloadCatalog::single(1));
    sim.run();
    std::ostringstream want;
    sim.writeStatsJson(want);

    const std::string got = readFile(
        shardPaths(opt.outDir, "vip-A1-s1").statsJson);
    EXPECT_EQ(got, want.str());
}

TEST_F(FleetTest, FailingJobsDegradeGracefullyIntoTheReport)
{
    // /bin/false crashes every attempt: the sweep must still finish,
    // exhaust the attempt cap, and report the failures -- never abort.
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1), job("vip", "A1", 2)};

    FleetOptions opt = options();
    opt.vipSimPath = "/bin/false";
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 1); // completed *with* failures
    EXPECT_EQ(out.done, 0u);
    EXPECT_EQ(out.failed, 2u);
    EXPECT_EQ(out.retries, 2u); // one retry each before the cap
    ASSERT_EQ(out.jobs.size(), 2u);
    for (const FoldedJob &j : out.jobs) {
        EXPECT_EQ(j.state, JobState::Failed);
        EXPECT_EQ(j.attempts, 2);
        EXPECT_EQ(j.lastError, "exit code 1");
        ASSERT_EQ(j.history.size(), 2u);
    }

    const std::string report = readFile(path("out/report.json"));
    EXPECT_NE(report.find("\"vip-fleet-report\""), std::string::npos);
    EXPECT_NE(report.find("\"failed\": 2"), std::string::npos);
    EXPECT_NE(report.find("\"exit code 1\""), std::string::npos);
}

TEST_F(FleetTest, StopFlagInterruptsTheSweepButStillWritesTheReport)
{
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1)};

    std::atomic<int> stop{2}; // as if SIGINT already arrived
    FleetOptions opt = options();
    opt.stopFlag = &stop;
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();
    EXPECT_TRUE(out.interrupted);
    EXPECT_EQ(out.exitCode(), 2);
    EXPECT_EQ(out.done, 0u);
    ASSERT_EQ(out.jobs.size(), 1u);
    EXPECT_EQ(out.jobs[0].state, JobState::Pending); // never started
    EXPECT_TRUE(fs::exists(path("out/report.json")));
    EXPECT_NE(readFile(path("out/report.json")).find("\"interrupted\": true"),
              std::string::npos);
}

TEST_F(FleetTest, MissingWorkerBinaryIsASetupError)
{
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1)};
    FleetOptions opt = options();
    opt.vipSimPath = path("no-such-binary");
    FleetSupervisor sup(spec, opt);
    EXPECT_THROW(sup.run(), SimFatal);
}

TEST_F(FleetTest, SilentWorkerIsKilledAsHung)
{
    // A worker that never writes a heartbeat row: once the startup
    // grace and the deadline pass, the watchdog SIGKILLs it, and the
    // retry meets the same fate.
    const std::string silent = path("silent.sh");
    std::ofstream(silent) << "#!/bin/sh\nexec sleep 30\n";
    fs::permissions(silent, fs::perms::owner_all);

    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1)};
    spec.fleet.heartbeatDeadlineMs = 100.0;
    spec.fleet.heartbeatGraceMs = 50.0;
    spec.fleet.maxAttempts = 2;

    FleetOptions opt = options();
    opt.vipSimPath = silent;
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 1);
    EXPECT_EQ(out.hangKills, 2u);
    ASSERT_EQ(out.jobs.size(), 1u);
    EXPECT_EQ(out.jobs[0].state, JobState::Failed);
    EXPECT_EQ(out.jobs[0].history,
              (std::vector<std::string>{
                  "attempt 1: hung (no heartbeat), killed",
                  "attempt 2: hung (no heartbeat), killed"}));

    std::ifstream journal(path("out/journal.jsonl"));
    int hangKillRecords = 0;
    for (std::string line; std::getline(journal, line);)
        hangKillRecords +=
            json::strField(json::parse(line), "type") == "hang_kill";
    EXPECT_EQ(hangKillRecords, 2);
}

TEST_F(FleetTest, UnlaunchableJobFailsAloneAndTheSweepFinishes)
{
    // vip-A1-s1's shard directory is a regular file, so none of its
    // attempt directories can be made: every launch fails.  Each one
    // burns an attempt like any other failure, and the other job runs
    // to completion.  (A file, not a chmod: root ignores modes.)
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1), job("vip", "A1", 2)};
    FleetOptions opt = options();
    fs::create_directories(path("out/shards"));
    std::ofstream(shardPaths(opt.outDir, "vip-A1-s1").dir) << "x";

    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 1);
    ASSERT_EQ(out.jobs.size(), 2u);
    const FoldedJob &bad = out.jobs[0];
    EXPECT_EQ(bad.state, JobState::Failed);
    EXPECT_EQ(bad.attempts, 2);
    ASSERT_EQ(bad.history.size(), 2u);
    EXPECT_NE(bad.lastError.find("launch failed: cannot create"),
              std::string::npos)
        << bad.lastError;
    EXPECT_EQ(out.jobs[1].state, JobState::Done);
    EXPECT_EQ(out.jobs[1].attempts, 1);
}

TEST_F(FleetTest, TwoWorkerSweepMergesEveryShard)
{
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1), job("vip", "A1", 2),
                 job("baseline", "A1", 1), job("baseline", "A1", 2)};

    FleetOptions opt = options();
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 4u);
    for (const FoldedJob &j : out.jobs)
        EXPECT_TRUE(fs::exists(
            shardPaths(opt.outDir, j.job.id).statsJson));
    // The standalone aggregate document rides along with the report.
    const std::string agg = readFile(path("out/aggregate.json"));
    EXPECT_NE(agg.find("\"vip-fleet-aggregate\""), std::string::npos);
    EXPECT_NE(agg.find("\"shards\": 4"), std::string::npos);
}

// ---------------------------------------------------------------
// The journal fold: report.json and vip_top read nothing else.
// ---------------------------------------------------------------

TEST_F(FleetTest, JournalFixtureFoldsIntoEveryReportField)
{
    // Every record type, four jobs on two workers: a chaos kill and
    // its resume, a launch failure, a hang kill, an interrupt that
    // fails the last attempt at the cap, and a last record its writer
    // never finished.
    std::ifstream in(std::string(VIP_TEST_DATA_DIR) +
                     "/fleet-journal.jsonl");
    ASSERT_TRUE(in);
    const FoldedSweep f = foldJournal(in);
    EXPECT_TRUE(f.ended);
    EXPECT_DOUBLE_EQ(f.wallMs, 210.0); // the torn line is skipped
    EXPECT_EQ(f.exitCode(), 2);
    // Live progress (vip_top): vip-A1-s1's newest attempt only.
    ASSERT_EQ(f.jobs.size(), 4u);
    EXPECT_DOUBLE_EQ(f.jobs[0].tickMs, 300.0);
    EXPECT_EQ(f.jobs[0].rates, std::vector<double>{20000.0});

    fs::create_directories(path("out"));
    FleetPolicy pol;
    pol.maxAttempts = 3;
    writeFleetReport(path("out"), f, pol);
    std::ifstream rin(path("out/report.json"));
    const json::JsonValue r = json::parse(rin);
    auto num = [](const json::JsonValue &o, const char *key) {
        const json::JsonValue *v = o.find(key);
        EXPECT_TRUE(v) << key;
        return v ? v->num : -1.0;
    };
    auto strs = [](const json::JsonValue &o, const char *key) {
        std::vector<std::string> out;
        if (const json::JsonValue *v = o.find(key))
            for (const json::JsonValue &x : v->arr)
                out.push_back(x.kind == json::JsonValue::Kind::String
                                  ? x.str
                                  : json::strField(x, "id"));
        return out;
    };

    EXPECT_EQ(json::strField(r, "kind"), "vip-fleet-report");
    EXPECT_EQ(num(r, "schemaVersion"), 4.0);
    EXPECT_EQ(json::strField(r, "name"), "fixture");
    EXPECT_EQ(num(r, "seconds"), 0.5);
    EXPECT_TRUE(r.find("interrupted") && r.find("interrupted")->b);
    EXPECT_EQ(num(*r.find("policy"), "max_attempts"), 3.0);
    EXPECT_EQ(r.obj.size(), 9u); // nothing beyond the fields above
    EXPECT_EQ(r.find("policy")->obj.size(), 9u);

    const json::JsonValue &sum = *r.find("summary");
    const std::vector<std::pair<const char *, double>> want{
        {"jobs", 4},    {"done", 3},       {"failed", 1},
        {"retries", 5}, {"resumes", 1},    {"hang_kills", 1},
        {"aggregated_shards", 0}};
    for (const auto &[key, v] : want)
        EXPECT_EQ(num(sum, key), v) << key;
    EXPECT_EQ(sum.obj.size(), want.size());
    EXPECT_EQ(strs(r, "failed_jobs"),
              std::vector<std::string>{"baseline-W1-s2"});

    const std::vector<json::JsonValue> &jobs = r.find("jobs")->arr;
    ASSERT_EQ(jobs.size(), 4u);
    const json::JsonValue &a = jobs[0], &b = jobs[1], &c = jobs[2],
                          &d = jobs[3];
    EXPECT_EQ(json::strField(a, "id"), "vip-A1-s1");
    EXPECT_EQ(json::strField(a, "config"), "vip");
    EXPECT_EQ(json::strField(a, "workload"), "A1");
    EXPECT_EQ(num(a, "seed"), 1.0);
    EXPECT_FALSE(a.find("fault_plan"));
    EXPECT_EQ(json::strField(a, "state"), "done");
    EXPECT_EQ(num(a, "attempts"), 2.0);
    EXPECT_TRUE(a.find("resumed")->b);
    EXPECT_EQ(num(a, "steady_tick_ms"), 228.5);
    EXPECT_EQ(num(a, "wall_ms"), 80.0);
    EXPECT_EQ(json::strField(a, "stats"),
              "shards/vip-A1-s1/stats.json");
    EXPECT_EQ(json::strField(a, "last_error"),
              "chaos SIGKILL (injected)");
    EXPECT_EQ(strs(a, "history"),
              std::vector<std::string>{
                  "attempt 1: chaos SIGKILL (injected)"});

    EXPECT_EQ(json::strField(b, "fault_plan"), "light");
    EXPECT_FALSE(b.find("resumed")->b);
    EXPECT_EQ(num(b, "attempts"), 1.0);
    EXPECT_EQ(num(b, "steady_tick_ms"), 240.0);
    EXPECT_EQ(num(b, "wall_ms"), 39.0);
    EXPECT_FALSE(b.find("last_error"));
    EXPECT_FALSE(b.find("history"));

    // A launch failure burns its attempt like any other failure.
    EXPECT_EQ(json::strField(c, "state"), "done");
    EXPECT_EQ(num(c, "attempts"), 3.0);
    EXPECT_FALSE(c.find("steady_tick_ms"));
    EXPECT_EQ(num(c, "wall_ms"), 130.0);
    EXPECT_EQ(strs(c, "history"),
              (std::vector<std::string>{
                  "attempt 1: launch failed: cannot create "
                  "out/shards/baseline-W1-s1/a1: Not a directory",
                  "attempt 2: hung (no heartbeat), killed"}));

    // Interrupted at the attempt cap: failed, with every attempt told.
    EXPECT_EQ(json::strField(d, "state"), "failed");
    EXPECT_EQ(num(d, "attempts"), 3.0);
    EXPECT_FALSE(d.find("stats"));
    EXPECT_EQ(num(d, "wall_ms"), 120.0);
    EXPECT_EQ(json::strField(d, "last_error"), "exit code 130");
    EXPECT_EQ(strs(d, "history"),
              (std::vector<std::string>{"attempt 1: exit code 1",
                                        "attempt 2: killed by signal 11",
                                        "attempt 3: exit code 130"}));

    const std::string agg = readFile(path("out/aggregate.json"));
    EXPECT_NE(agg.find("\"vip-fleet-aggregate\""), std::string::npos);
    EXPECT_NE(agg.find("\"shards\": 0"), std::string::npos);
}

TEST(FleetJournalFold, UndeclaredJobsAndStatesAreFatal)
{
    std::istringstream undeclared(
        "{\"seq\": 0, \"wall_ms\": 0, \"type\": \"launch\", "
        "\"job\": \"x\", \"state\": \"running\"}\n");
    EXPECT_THROW(foldJournal(undeclared), SimFatal);
    std::istringstream badState(
        "{\"seq\": 0, \"wall_ms\": 0, \"type\": \"job\", "
        "\"job\": \"x\"}\n"
        "{\"seq\": 1, \"wall_ms\": 0, \"type\": \"launch\", "
        "\"job\": \"x\", \"state\": \"sleeping\"}\n");
    EXPECT_THROW(foldJournal(badState), SimFatal);
}

} // namespace
} // namespace fleet
} // namespace vip
