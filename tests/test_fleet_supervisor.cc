/**
 * @file
 * Fleet supervision tests: the scheduler's lease-fenced retry state
 * machine under a fake clock (expiry, zombie rejection and rescue,
 * duplicate suppression), decorrelated-jitter backoff, worker argv
 * construction, the stats merge, and whole-fleet runs whose workers
 * are real vip_sim processes (VIP_SIM_PATH) — including graceful
 * degradation (failed jobs never abort a sweep), the hang watchdog,
 * host quarantine and recovery under injected transport faults,
 * lease-expiry reassignment across hosts, the all-hosts-dead
 * terminal error, and shards bit-identical to an in-process run —
 * and the journal fold every report is, over a checked-in fixture.
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
#include "fleet/hosts.hh"
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

/** Fail job @p idx's current attempt at @p nowMs (fake clock). */
void
fail(FleetScheduler &s, std::size_t idx, double nowMs, bool canResume)
{
    ASSERT_TRUE(s.acceptFailure(idx, s.job(idx).token, nowMs, canResume));
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
    fail(s, 0, 10.0, false);
    EXPECT_EQ(s.job(0).state, JobState::Backoff);
    EXPECT_DOUBLE_EQ(s.job(0).readyAtMs, 10.0 + d1);

    // Not eligible until the delay elapses.
    EXPECT_EQ(s.claimNext(10.0), FleetScheduler::npos);
    EXPECT_EQ(s.claimNext(10.0 + d1 - 0.1), FleetScheduler::npos);
    ASSERT_EQ(s.claimNext(10.0 + d1), 0u);
    EXPECT_EQ(s.job(0).attempts, 2);

    // The second failure waits out the second rung.
    fail(s, 0, 500.0, false);
    EXPECT_DOUBLE_EQ(s.job(0).readyAtMs, 500.0 + d2);
    ASSERT_EQ(s.claimNext(500.0 + d2), 0u);

    // Third failure hits the attempt cap: terminal, sweep settles.
    fail(s, 0, 2000.0, false);
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
    fail(s, 0, 1.0, true);
    EXPECT_TRUE(s.job(0).resumeNext);
    ASSERT_EQ(s.claimNext(1.0), 0u);
    EXPECT_TRUE(s.job(0).resumeNext); // this attempt restores
    EXPECT_TRUE(s.acceptSuccess(0, s.job(0).token));
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
    fail(s, 0, 1.0, true);
    EXPECT_FALSE(s.job(0).resumeNext); // checkpoint exists, policy no
}

TEST(FleetScheduler, PendingJobsWinOverEligibleBackoffs)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 0.0;
    FleetScheduler s({job("vip", "A1", 1), job("vip", "A1", 2)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    fail(s, 0, 1.0, false);
    // Job 0 is eligible again, but fresh job 1 goes first.
    EXPECT_EQ(s.claimNext(2.0), 1u);
    EXPECT_EQ(s.claimNext(2.0), 0u);
}

// ---------------------------------------------------------------
// Lease-fenced ownership: expiry, zombies, duplicate suppression.
// ---------------------------------------------------------------

TEST(FleetLease, ExpiryReassignsUnderANewerFencingToken)
{
    FleetPolicy pol;
    pol.maxAttempts = 3;
    pol.backoffBaseMs = 0.0;
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);

    ASSERT_EQ(s.claimNext(0.0), 0u);
    const std::uint64_t t1 = s.job(0).token;
    EXPECT_FALSE(s.leaseExpired(0, 99.0));
    s.renewLease(0, 99.0);
    EXPECT_FALSE(s.leaseExpired(0, 150.0)); // renewed to 199
    EXPECT_TRUE(s.leaseExpired(0, 199.1));

    // Mid-Running expiry: the attempt is written off and the job
    // goes back into rotation.
    s.onLeaseExpired(0, 200.0, true);
    EXPECT_EQ(s.job(0).state, JobState::Backoff);
    EXPECT_TRUE(s.job(0).resumeNext);
    EXPECT_EQ(s.job(0).attempts, 1);

    // The retry runs under a strictly newer token.
    ASSERT_EQ(s.claimNext(200.0), 0u);
    const std::uint64_t t2 = s.job(0).token;
    EXPECT_GT(t2, t1);
    EXPECT_EQ(s.job(0).attempts, 2);

    // The zombie's late success carries the stale token: rejected,
    // never merged.
    EXPECT_FALSE(s.acceptSuccess(0, t1));
    EXPECT_EQ(s.job(0).state, JobState::Running);

    // The live attempt's success under the current token lands.
    EXPECT_TRUE(s.acceptSuccess(0, t2));
    EXPECT_EQ(s.job(0).state, JobState::Done);
}

TEST(FleetLease, ZombieIsRescuedWhenNoNewerAttemptWasIssued)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 1000.0; // retry not yet eligible
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);

    ASSERT_EQ(s.claimNext(0.0), 0u);
    const std::uint64_t t1 = s.job(0).token;
    s.onLeaseExpired(0, 101.0, false);
    EXPECT_EQ(s.job(0).state, JobState::Backoff);
    EXPECT_EQ(s.claimNext(150.0), FleetScheduler::npos);

    // The attempt outlived its lease but nothing re-claimed the job:
    // its (fence-current) result is still good.  Rescue it.
    EXPECT_TRUE(s.acceptSuccess(0, t1));
    EXPECT_EQ(s.job(0).state, JobState::Done);
    EXPECT_TRUE(s.allSettled());
    EXPECT_EQ(s.claimNext(1e9), FleetScheduler::npos);
}

TEST(FleetLease, DuplicateDeliveryNeverMergesTwice)
{
    FleetPolicy pol;
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    const std::uint64_t t1 = s.job(0).token;
    EXPECT_TRUE(s.acceptSuccess(0, t1));
    // Same token, redelivered (duplicated fetch): refused.
    EXPECT_FALSE(s.acceptSuccess(0, t1));
    EXPECT_EQ(s.job(0).state, JobState::Done);
    EXPECT_EQ(s.job(0).attempts, 1);
}

TEST(FleetLease, StaleFailureReportsAreIgnored)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 0.0;
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    const std::uint64_t t1 = s.job(0).token;
    s.onLeaseExpired(0, 101.0, false);
    ASSERT_EQ(s.claimNext(101.0), 0u);

    // The zombie dies late: its failure is already accounted by the
    // expiry, and must not burn the live attempt.
    EXPECT_FALSE(s.acceptFailure(0, t1, 150.0, false));
    EXPECT_EQ(s.job(0).state, JobState::Running);
    EXPECT_EQ(s.job(0).attempts, 2);
}

TEST(FleetLease, ReleasedClaimBurnsNothingAndAcceptsNothing)
{
    FleetPolicy pol;
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    const std::uint64_t t1 = s.job(0).token;
    // Launch failed: the worker never existed.
    s.releaseClaim(0);
    EXPECT_EQ(s.job(0).state, JobState::Pending);
    EXPECT_EQ(s.job(0).attempts, 0);
    // A result under the released token is impossible in practice;
    // the fence still refuses it (Pending accepts nothing).
    EXPECT_FALSE(s.acceptSuccess(0, t1));
    // The next claim issues a fresh token and attempt 1 again.
    ASSERT_EQ(s.claimNext(1.0), 0u);
    EXPECT_EQ(s.job(0).attempts, 1);
    EXPECT_GT(s.job(0).token, t1);
}

TEST(FleetLease, ExpiryAtTheAttemptCapIsTerminal)
{
    FleetPolicy pol;
    pol.maxAttempts = 1;
    pol.leaseMs = 50.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    const std::uint64_t t1 = s.job(0).token;
    s.onLeaseExpired(0, 51.0, false);
    EXPECT_EQ(s.job(0).state, JobState::Failed);
    EXPECT_TRUE(s.allSettled());
    // ... but a late zombie success under the still-current token
    // can still rescue the job from the Failed column.
    EXPECT_TRUE(s.acceptSuccess(0, t1));
    EXPECT_EQ(s.job(0).state, JobState::Done);
}

TEST(FleetLease, FailAllUnsettledIsTheTerminalPath)
{
    FleetPolicy pol;
    pol.leaseMs = 0.0; // unleased
    FleetScheduler s({job("vip", "A1", 1), job("vip", "A1", 2),
                      job("vip", "A1", 3)},
                     pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    EXPECT_TRUE(s.acceptSuccess(0, s.job(0).token));
    ASSERT_EQ(s.claimNext(1.0), 1u);
    EXPECT_EQ(s.failAllUnsettled(), (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(s.job(0).state, JobState::Done); // completed work survives
    EXPECT_EQ(s.job(1).state, JobState::Failed);
    EXPECT_EQ(s.job(2).state, JobState::Failed);
    EXPECT_TRUE(s.allSettled());
}

TEST(FleetLease, ZeroLeaseNeverExpires)
{
    FleetPolicy pol;
    pol.leaseMs = 0.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    EXPECT_FALSE(s.leaseExpired(0, 1e12));
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
    // transport picks the working directory, so the same argv runs
    // locally or on any ssh host.  Checkpoint identity
    // covers audit spec and metrics interval, so every attempt (and
    // any reference rerun) MUST repeat the same flags; --restore is
    // appended by the transport after it stages the checkpoint.
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
        EXPECT_NE(a, "--restore"); // the transport's job
        EXPECT_EQ(a.find('/'), std::string::npos)
            << "host-dependent path in argv: " << a;
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
    // Attempts stage under the shard, keyed by fencing token, so two
    // attempts of one job can never collide.
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

// ---------------------------------------------------------------
// Whole-fleet robustness: quarantine, reassignment, terminal death
// (local process hosts under deterministic fault injection — no
// network).
// ---------------------------------------------------------------

HostSpec
processHost(const std::string &name, int slots,
            const std::string &fault)
{
    HostSpec h;
    h.name = name;
    h.transport = "process";
    h.slots = slots;
    h.faultSpec = fault;
    return h;
}

TEST_F(FleetTest, QuarantinedHostRecoversThroughAProbe)
{
    JobSpec spec = smallSpec(0.05);
    // Two jobs, one slot: the second job can only start after the
    // quarantined host is probed back to health, so the sweep cannot
    // finish unless quarantine -> probe -> re-admission works.
    spec.jobs = {job("vip", "A1", 1), job("vip", "A1", 2)};
    spec.fleet.quarantineAfter = 1;
    spec.fleet.probeIntervalMs = 2.0;
    spec.fleet.maxProbes = 50;
    spec.fleet.maxQuarantines = 50;

    FleetOptions opt = options();
    // Ops 1..3 after the launch fail: the first poll quarantines the
    // host, a probe inside the window fails, a later probe succeeds
    // and re-admits it; the first attempt keeps running throughout.
    opt.hosts = {processHost("flaky", 1, "partition@1+3")};
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 2u);
    EXPECT_GE(out.hostsQuarantined, 1);
    EXPECT_EQ(out.hostsDead, 0);
    ASSERT_EQ(out.hosts.size(), 1u);
    EXPECT_EQ(out.hosts[0].state, "healthy");
    EXPECT_GE(out.hosts[0].quarantines, 1);
    EXPECT_TRUE(out.hosts[0].faulty);

    const std::string report = readFile(path("out/report.json"));
    EXPECT_NE(report.find("\"quarantined_hosts\": [\"flaky\"]"),
              std::string::npos);
}

TEST_F(FleetTest, ExpiredLeaseMovesTheJobToASurvivingHost)
{
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1)};
    spec.fleet.maxAttempts = 3;
    spec.fleet.leaseMs = 40.0;
    spec.fleet.quarantineAfter = 1000; // isolate lease behavior
    spec.fleet.fetchRetries = 1;

    FleetOptions opt = options();
    // Host "dark" answers the launch, then every op fails forever:
    // no liveness evidence ever arrives, the lease expires, and the
    // retry must land on "good".  The zombie's artifacts are
    // unfetchable and get discarded.
    opt.hosts = {processHost("dark", 1, "partition@1+100000"),
                 processHost("good", 1, "")};
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 1u);
    EXPECT_EQ(out.leaseExpiries, 1);
    ASSERT_EQ(out.jobs.size(), 1u);
    EXPECT_EQ(out.jobs[0].state, JobState::Done);
    EXPECT_EQ(out.jobs[0].host, "good");
    EXPECT_EQ(out.jobs[0].leaseExpiries, 1);
    EXPECT_NE(out.jobs[0].history.back().find("lease expired"),
              std::string::npos);

    const std::string report = readFile(path("out/report.json"));
    EXPECT_NE(report.find("\"reassigned_jobs\": [\"vip-A1-s1\"]"),
              std::string::npos);
    EXPECT_NE(report.find("\"lease_expiries\": 1"),
              std::string::npos);
}

TEST_F(FleetTest, AllHostsDeadIsTerminalButStillReports)
{
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1), job("vip", "A1", 2)};
    spec.fleet.quarantineAfter = 1;
    spec.fleet.probeIntervalMs = 1.0;
    spec.fleet.maxProbes = 1;
    spec.fleet.maxQuarantines = 1;

    FleetOptions opt = options();
    // The host dies on its very first op: launches fail, the one
    // re-admission probe fails, and the sweep has nowhere left to
    // run — the one terminal error, reported, exit code 2.
    opt.hosts = {processHost("doomed", 2, "die@0")};
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 2);
    EXPECT_FALSE(out.fatal.empty());
    EXPECT_EQ(out.done, 0u);
    EXPECT_EQ(out.failed, 2u);
    EXPECT_EQ(out.hostsDead, 1);
    ASSERT_EQ(out.hosts.size(), 1u);
    EXPECT_EQ(out.hosts[0].state, "dead");
    for (const FoldedJob &j : out.jobs) {
        EXPECT_EQ(j.state, JobState::Failed);
        EXPECT_NE(j.lastError.find("all hosts dead"),
                  std::string::npos);
    }
    const std::string report = readFile(path("out/report.json"));
    EXPECT_NE(report.find("\"fatal\""), std::string::npos);
    EXPECT_NE(report.find("\"hosts_dead\": 1"), std::string::npos);
}

TEST_F(FleetTest, MultiHostSweepSpreadsWorkAndMergesEveryShard)
{
    JobSpec spec = smallSpec(0.05);
    spec.jobs = {job("vip", "A1", 1), job("vip", "A1", 2),
                 job("baseline", "A1", 1), job("baseline", "A1", 2)};

    FleetOptions opt = options();
    opt.hosts = {processHost("h1", 2, ""), processHost("h2", 2, "")};
    FleetSupervisor sup(spec, opt);
    const FoldedSweep out = sup.run();

    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 4u);
    std::size_t perHost = 0;
    for (const FoldedHost &h : out.hosts)
        perHost += h.jobsDone;
    EXPECT_EQ(perHost, 4u);
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
    // Every record type, four jobs on two hosts, both hosts dead by
    // the end, and a last record its writer never finished.
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
    pol.maxAttempts = 4;
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
    EXPECT_EQ(num(r, "schemaVersion"), 3.0);
    EXPECT_EQ(json::strField(r, "name"), "fixture");
    EXPECT_EQ(num(r, "seconds"), 0.5);
    EXPECT_TRUE(r.find("interrupted") && r.find("interrupted")->b);
    EXPECT_EQ(json::strField(r, "fatal"),
              "all 2 host(s) dead; 1 unsettled job(s) abandoned");
    EXPECT_EQ(num(*r.find("policy"), "max_attempts"), 4.0);

    const json::JsonValue &sum = *r.find("summary");
    const std::vector<std::pair<const char *, double>> want{
        {"jobs", 4},           {"done", 3},
        {"failed", 1},         {"retries", 6},
        {"resumes", 1},        {"hang_kills", 1},
        {"lease_expiries", 6}, {"zombie_rejects", 3},
        {"zombie_rescues", 1}, {"hosts_quarantined", 3},
        {"hosts_dead", 2},     {"aggregated_shards", 0}};
    for (const auto &[key, v] : want)
        EXPECT_EQ(num(sum, key), v) << key;

    EXPECT_EQ(strs(r, "reassigned_jobs"),
              (std::vector<std::string>{"vip-A1-s2", "baseline-W1-s1",
                                        "baseline-W1-s2"}));
    EXPECT_EQ(strs(r, "quarantined_hosts"),
              (std::vector<std::string>{"h1", "h2"}));
    EXPECT_EQ(strs(r, "failed_jobs"),
              std::vector<std::string>{"baseline-W1-s2"});

    const std::vector<json::JsonValue> &hosts = r.find("hosts")->arr;
    ASSERT_EQ(hosts.size(), 2u);
    EXPECT_EQ(json::strField(hosts[0], "name"), "h1");
    EXPECT_EQ(json::strField(hosts[0], "transport"), "process");
    EXPECT_EQ(num(hosts[0], "slots"), 1.0);
    EXPECT_EQ(json::strField(hosts[0], "state"), "dead");
    EXPECT_EQ(num(hosts[0], "quarantines"), 1.0);
    EXPECT_EQ(num(hosts[0], "op_failures"), 1.0);
    EXPECT_EQ(num(hosts[0], "jobs_done"), 1.0);
    EXPECT_EQ(num(hosts[0], "faults_injected"), 7.0);
    EXPECT_EQ(json::strField(hosts[0], "last_error"),
              "poll baseline-W1-s2: injected fault: host dead");
    EXPECT_EQ(json::strField(hosts[1], "transport"), "ssh");
    EXPECT_EQ(num(hosts[1], "slots"), 2.0);
    EXPECT_EQ(json::strField(hosts[1], "state"), "dead");
    EXPECT_EQ(num(hosts[1], "quarantines"), 2.0);
    EXPECT_EQ(num(hosts[1], "op_failures"), 3.0);
    EXPECT_EQ(num(hosts[1], "jobs_done"), 2.0);
    EXPECT_FALSE(hosts[1].find("faults_injected")); // not faulty
    EXPECT_EQ(json::strField(hosts[1], "last_error"),
              "poll baseline-W1-s2: connection reset");

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
    EXPECT_EQ(json::strField(a, "host"), "h2");
    EXPECT_FALSE(a.find("lease_expiries"));
    EXPECT_EQ(num(a, "zombie_rejects"), 1.0); // stale_reject
    EXPECT_FALSE(a.find("rescued"));
    EXPECT_EQ(num(a, "steady_tick_ms"), 228.5);
    EXPECT_EQ(num(a, "wall_ms"), 50.0);
    EXPECT_EQ(json::strField(a, "stats"),
              "shards/vip-A1-s1/stats.json");
    EXPECT_EQ(json::strField(a, "last_error"),
              "chaos SIGKILL (injected)");
    EXPECT_EQ(strs(a, "history"),
              std::vector<std::string>{
                  "attempt 1: chaos SIGKILL (injected)"});

    EXPECT_EQ(json::strField(b, "fault_plan"), "light");
    EXPECT_FALSE(b.find("resumed")->b);
    EXPECT_EQ(json::strField(b, "host"), "h1");
    EXPECT_EQ(num(b, "lease_expiries"), 1.0);
    EXPECT_FALSE(b.find("zombie_rejects")); // unfetchable: no count
    EXPECT_EQ(num(b, "steady_tick_ms"), 240.0);
    EXPECT_EQ(num(b, "wall_ms"), 98.0);

    // A lease expiry at the attempt cap, then rescued by its zombie;
    // its first launch failed and burned nothing.
    EXPECT_EQ(json::strField(c, "state"), "done");
    EXPECT_EQ(num(c, "attempts"), 2.0);
    EXPECT_TRUE(c.find("rescued") && c.find("rescued")->b);
    EXPECT_FALSE(c.find("steady_tick_ms"));
    EXPECT_EQ(num(c, "wall_ms"), 88.0);
    EXPECT_EQ(strs(c, "history"),
              (std::vector<std::string>{
                  "attempt 1: hung (no heartbeat), killed",
                  "attempt 2: lease expired after 600 ms on host h2"}));

    // Four expiries, a stale-token zombie failure and a stale zombie
    // success counted as rejects (the unclaimed zombie's failure is
    // not), then abandoned when the last host died.
    EXPECT_EQ(json::strField(d, "state"), "failed");
    EXPECT_EQ(num(d, "attempts"), 4.0);
    EXPECT_EQ(json::strField(d, "host"), "h1");
    EXPECT_EQ(num(d, "lease_expiries"), 4.0);
    EXPECT_EQ(num(d, "zombie_rejects"), 2.0);
    EXPECT_FALSE(d.find("stats"));
    EXPECT_EQ(num(d, "wall_ms"), 40.0);
    EXPECT_EQ(json::strField(d, "last_error"),
              "all hosts dead; job abandoned");
    ASSERT_EQ(strs(d, "history").size(), 5u);
    EXPECT_EQ(strs(d, "history").back(),
              "abandoned: all hosts dead; job abandoned");

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
