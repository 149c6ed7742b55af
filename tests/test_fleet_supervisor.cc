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
 * terminal error, and shards bit-identical to an in-process run.
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
    EXPECT_EQ(s.runningCount(), 2u);
    EXPECT_FALSE(s.allSettled());
}

TEST(FleetScheduler, FailureBacksOffExponentiallyThenRetries)
{
    FleetPolicy pol;
    pol.maxAttempts = 3;
    pol.backoffBaseMs = 100.0;
    pol.backoffCapMs = 1000.0;
    pol.backoffJitter = false; // exact ladder, no jitter
    FleetScheduler s({job("vip", "A1", 1)}, pol);

    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 10.0, 10.0, "exit code 1", false);
    EXPECT_EQ(s.job(0).state, JobState::Backoff);
    EXPECT_DOUBLE_EQ(s.job(0).readyAtMs, 110.0); // 10 + 100*2^0
    EXPECT_DOUBLE_EQ(s.nextReadyMs(), 110.0);

    // Not eligible until the delay elapses.
    EXPECT_EQ(s.claimNext(50.0), FleetScheduler::npos);
    EXPECT_EQ(s.claimNext(109.9), FleetScheduler::npos);
    ASSERT_EQ(s.claimNext(110.0), 0u);
    EXPECT_EQ(s.job(0).attempts, 2);

    // Second failure doubles the delay.
    s.onFailure(0, 120.0, 10.0, "exit code 1", false);
    EXPECT_DOUBLE_EQ(s.job(0).readyAtMs, 320.0); // 120 + 100*2^1
    ASSERT_EQ(s.claimNext(320.0), 0u);

    // Third failure hits the attempt cap: terminal, sweep settles.
    s.onFailure(0, 330.0, 10.0, "exit code 1", false);
    EXPECT_EQ(s.job(0).state, JobState::Failed);
    EXPECT_EQ(s.failedCount(), 1u);
    EXPECT_TRUE(s.allSettled());
    EXPECT_EQ(s.claimNext(1e9), FleetScheduler::npos);
    ASSERT_EQ(s.job(0).history.size(), 3u);
    EXPECT_EQ(s.job(0).history[0], "attempt 1: exit code 1");
}

TEST(FleetScheduler, ResumableFailureMarksNextAttempt)
{
    FleetPolicy pol;
    pol.maxAttempts = 3;
    pol.backoffBaseMs = 0.0; // retry immediately
    FleetScheduler s({job("vip", "A1", 1)}, pol);

    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 1.0, 1.0, "chaos SIGKILL", true);
    EXPECT_TRUE(s.job(0).resumeNext);
    ASSERT_EQ(s.claimNext(1.0), 0u);
    s.onSuccess(0, 5.0);
    EXPECT_EQ(s.job(0).state, JobState::Done);
    EXPECT_TRUE(s.job(0).everResumed);
    EXPECT_FALSE(s.job(0).resumeNext);
    EXPECT_DOUBLE_EQ(s.job(0).wallMs, 6.0); // both attempts counted
    EXPECT_TRUE(s.allSettled());
}

TEST(FleetScheduler, PolicyCanForbidResume)
{
    FleetPolicy pol;
    pol.resume = false;
    pol.backoffBaseMs = 0.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 1.0, 1.0, "killed by signal 9", true);
    EXPECT_FALSE(s.job(0).resumeNext); // checkpoint exists, policy no
}

TEST(FleetScheduler, PendingJobsWinOverEligibleBackoffs)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 0.0;
    FleetScheduler s({job("vip", "A1", 1), job("vip", "A1", 2)}, pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onFailure(0, 1.0, 1.0, "x", false);
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

    ASSERT_EQ(s.claimNext(0.0, "h1"), 0u);
    const std::uint64_t t1 = s.job(0).token;
    EXPECT_FALSE(s.leaseExpired(0, 99.0));
    s.renewLease(0, 99.0);
    EXPECT_FALSE(s.leaseExpired(0, 150.0)); // renewed to 199
    EXPECT_TRUE(s.leaseExpired(0, 199.1));

    // Mid-Running expiry: the attempt is written off, the job goes
    // back into rotation, and its history records why.
    s.onLeaseExpired(0, 200.0, 200.0, "lease expired on h1", true);
    EXPECT_EQ(s.job(0).state, JobState::Backoff);
    EXPECT_TRUE(s.job(0).resumeNext);
    EXPECT_EQ(s.job(0).leaseExpiries, 1);
    EXPECT_EQ(s.leaseExpiries(), 1);
    EXPECT_NE(s.job(0).history.back().find("lease expired"),
              std::string::npos);

    // The retry runs under a strictly newer token on another host.
    ASSERT_EQ(s.claimNext(200.0, "h2"), 0u);
    const std::uint64_t t2 = s.job(0).token;
    EXPECT_GT(t2, t1);
    EXPECT_EQ(s.job(0).host, "h2");

    // The zombie's late success carries the stale token: rejected,
    // counted, never merged.
    EXPECT_FALSE(s.acceptSuccess(0, t1, 500.0));
    EXPECT_EQ(s.job(0).state, JobState::Running);
    EXPECT_EQ(s.zombieRejects(), 1);
    EXPECT_EQ(s.job(0).zombieRejects, 1);

    // The live attempt's success under the current token lands.
    EXPECT_TRUE(s.acceptSuccess(0, t2, 50.0));
    EXPECT_EQ(s.job(0).state, JobState::Done);
    EXPECT_FALSE(s.job(0).rescued);
}

TEST(FleetLease, ZombieIsRescuedWhenNoNewerAttemptWasIssued)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 1000.0; // retry not yet eligible
    pol.backoffJitter = false;
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);

    ASSERT_EQ(s.claimNext(0.0, "h1"), 0u);
    const std::uint64_t t1 = s.job(0).token;
    s.onLeaseExpired(0, 101.0, 101.0, "lease expired", false);
    EXPECT_EQ(s.job(0).state, JobState::Backoff);

    // The attempt outlived its lease but nothing re-claimed the job:
    // its (fence-current) result is still good.  Rescue it.
    EXPECT_TRUE(s.acceptSuccess(0, t1, 150.0));
    EXPECT_EQ(s.job(0).state, JobState::Done);
    EXPECT_TRUE(s.job(0).rescued);
    EXPECT_EQ(s.zombieRescues(), 1);
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
    EXPECT_TRUE(s.acceptSuccess(0, t1, 10.0));
    // Same token, redelivered (duplicated fetch): refused.
    EXPECT_FALSE(s.acceptSuccess(0, t1, 10.0));
    EXPECT_EQ(s.zombieRejects(), 1);
    EXPECT_DOUBLE_EQ(s.job(0).wallMs, 10.0); // counted once
}

TEST(FleetLease, StaleFailureReportsAreIgnored)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 0.0;
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0, "h1"), 0u);
    const std::uint64_t t1 = s.job(0).token;
    s.onLeaseExpired(0, 101.0, 101.0, "lease expired", false);
    ASSERT_EQ(s.claimNext(101.0, "h2"), 0u);

    // The zombie dies late: its failure is already accounted by the
    // expiry, and must not burn the live attempt.
    EXPECT_FALSE(s.acceptFailure(0, t1, 150.0, 150.0, "late crash",
                                 false));
    EXPECT_EQ(s.job(0).state, JobState::Running);
    EXPECT_EQ(s.job(0).attempts, 2);
}

TEST(FleetLease, ReleasedClaimBurnsNothingAndAcceptsNothing)
{
    FleetPolicy pol;
    pol.leaseMs = 100.0;
    FleetScheduler s({job("vip", "A1", 1)}, pol);
    ASSERT_EQ(s.claimNext(0.0, "h1"), 0u);
    const std::uint64_t t1 = s.job(0).token;
    // Launch failed: the worker never existed.
    s.releaseClaim(0);
    EXPECT_EQ(s.job(0).state, JobState::Pending);
    EXPECT_EQ(s.job(0).attempts, 0);
    // A result under the released token is impossible in practice;
    // the fence still refuses it (Pending accepts nothing).
    EXPECT_FALSE(s.acceptSuccess(0, t1, 1.0));
    // The next claim issues a fresh token and attempt 1 again.
    ASSERT_EQ(s.claimNext(1.0, "h2"), 0u);
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
    s.onLeaseExpired(0, 51.0, 51.0, "lease expired", false);
    EXPECT_EQ(s.job(0).state, JobState::Failed);
    EXPECT_EQ(s.failedCount(), 1u);
    // ... but a late zombie success under the still-current token
    // can still rescue the job from the Failed column.
    EXPECT_TRUE(s.acceptSuccess(0, t1, 80.0));
    EXPECT_EQ(s.job(0).state, JobState::Done);
    EXPECT_TRUE(s.job(0).rescued);
}

TEST(FleetLease, FailAllUnsettledIsTheTerminalPath)
{
    FleetPolicy pol;
    pol.leaseMs = 0.0; // unleased
    FleetScheduler s({job("vip", "A1", 1), job("vip", "A1", 2),
                      job("vip", "A1", 3)},
                     pol);
    ASSERT_EQ(s.claimNext(0.0), 0u);
    s.onSuccess(0, 1.0);
    ASSERT_EQ(s.claimNext(1.0), 1u);
    EXPECT_EQ(s.failAllUnsettled("all hosts dead"), 2u);
    EXPECT_EQ(s.doneCount(), 1u); // completed work survives
    EXPECT_EQ(s.failedCount(), 2u);
    EXPECT_TRUE(s.allSettled());
    EXPECT_EQ(s.job(1).history.back(), "abandoned: all hosts dead");
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

TEST(FleetBackoff, JitterOffReproducesTheLegacyLadderExactly)
{
    FleetPolicy pol;
    pol.backoffBaseMs = 100.0;
    pol.backoffCapMs = 1000.0;
    pol.backoffJitter = false;
    for (int k = 1; k <= 8; ++k)
        EXPECT_DOUBLE_EQ(retryDelayMs(pol, "any", k),
                         backoffDelayMs(pol, k));
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
    const FleetOutcome out = sup.run();
    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 2u);
    EXPECT_EQ(out.failed, 0u);
    EXPECT_TRUE(fs::exists(out.reportPath));

    // Mirror the worker's exact configuration in this process; the
    // shard's stats dump must be byte-identical.
    SocConfig cfg;
    cfg.simSeconds = 0.05;
    cfg.seed = 1;
    cfg.system = SystemConfig::VIP;
    cfg.audit = AuditConfig::parse("periodic:1");
    cfg.ts.metricsOut = path("mirror.csv");
    cfg.ts.intervalMs = 1.0;
    cfg.statsOut = path("mirror-stats.json");
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
    const FleetOutcome out = sup.run();

    EXPECT_EQ(out.exitCode(), 1); // completed *with* failures
    EXPECT_EQ(out.done, 0u);
    EXPECT_EQ(out.failed, 2u);
    EXPECT_EQ(out.retries, 2u); // one retry each before the cap
    ASSERT_EQ(out.jobs.size(), 2u);
    for (const JobProgress &p : out.jobs) {
        EXPECT_EQ(p.state, JobState::Failed);
        EXPECT_EQ(p.attempts, 2);
        EXPECT_EQ(p.lastError, "exit code 1");
        ASSERT_EQ(p.history.size(), 2u);
    }

    const std::string report = readFile(out.reportPath);
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
    const FleetOutcome out = sup.run();
    EXPECT_TRUE(out.interrupted);
    EXPECT_EQ(out.exitCode(), 2);
    EXPECT_EQ(out.done, 0u);
    ASSERT_EQ(out.jobs.size(), 1u);
    EXPECT_EQ(out.jobs[0].state, JobState::Pending); // never started
    EXPECT_TRUE(fs::exists(out.reportPath));
    EXPECT_NE(readFile(out.reportPath).find("\"interrupted\": true"),
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
    const FleetOutcome out = sup.run();

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
    opt.pollMs = 2.0;
    // Ops 1..3 after the launch fail: the first poll quarantines the
    // host, a probe inside the window fails, a later probe succeeds
    // and re-admits it; the first attempt keeps running throughout.
    opt.hosts = {processHost("flaky", 1, "partition@1+3")};
    FleetSupervisor sup(spec, opt);
    const FleetOutcome out = sup.run();

    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 2u);
    EXPECT_GE(out.hostsQuarantined, 1);
    EXPECT_EQ(out.hostsDead, 0);
    ASSERT_EQ(out.hosts.size(), 1u);
    EXPECT_EQ(out.hosts[0].state, "healthy");
    EXPECT_GE(out.hosts[0].quarantines, 1);
    EXPECT_TRUE(out.hosts[0].faulty);

    const std::string report = readFile(out.reportPath);
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
    opt.pollMs = 2.0;
    opt.zombieGraceMs = 50.0;
    // Host "dark" answers the launch, then every op fails forever:
    // no liveness evidence ever arrives, the lease expires, and the
    // retry must land on "good".  The zombie's artifacts are
    // unfetchable and get discarded.
    opt.hosts = {processHost("dark", 1, "partition@1+100000"),
                 processHost("good", 1, "")};
    FleetSupervisor sup(spec, opt);
    const FleetOutcome out = sup.run();

    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 1u);
    EXPECT_EQ(out.leaseExpiries, 1);
    ASSERT_EQ(out.jobs.size(), 1u);
    EXPECT_EQ(out.jobs[0].state, JobState::Done);
    EXPECT_EQ(out.jobs[0].host, "good");
    EXPECT_EQ(out.jobs[0].leaseExpiries, 1);
    EXPECT_NE(out.jobs[0].history.back().find("lease expired"),
              std::string::npos);

    const std::string report = readFile(out.reportPath);
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
    opt.pollMs = 2.0;
    // The host dies on its very first op: launches fail, the one
    // re-admission probe fails, and the sweep has nowhere left to
    // run — the one terminal error, reported, exit code 2.
    opt.hosts = {processHost("doomed", 2, "die@0")};
    FleetSupervisor sup(spec, opt);
    const FleetOutcome out = sup.run();

    EXPECT_EQ(out.exitCode(), 2);
    EXPECT_FALSE(out.fatal.empty());
    EXPECT_EQ(out.done, 0u);
    EXPECT_EQ(out.failed, 2u);
    EXPECT_EQ(out.hostsDead, 1);
    ASSERT_EQ(out.hosts.size(), 1u);
    EXPECT_EQ(out.hosts[0].state, "dead");
    for (const JobProgress &p : out.jobs) {
        EXPECT_EQ(p.state, JobState::Failed);
        EXPECT_NE(p.lastError.find("all hosts dead"),
                  std::string::npos);
    }
    const std::string report = readFile(out.reportPath);
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
    const FleetOutcome out = sup.run();

    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(out.done, 4u);
    std::size_t perHost = 0;
    for (const HostReport &h : out.hosts)
        perHost += h.jobsDone;
    EXPECT_EQ(perHost, 4u);
    for (const JobProgress &p : out.jobs)
        EXPECT_TRUE(fs::exists(
            shardPaths(opt.outDir, p.job.id).statsJson));
    // The standalone aggregate document rides along with the report.
    const std::string agg = readFile(path("out/aggregate.json"));
    EXPECT_NE(agg.find("\"vip-fleet-aggregate\""), std::string::npos);
    EXPECT_NE(agg.find("\"shards\": 4"), std::string::npos);
}

} // namespace
} // namespace fleet
} // namespace vip
