/**
 * @file
 * Integration tests: whole-platform runs under every system
 * configuration, checking the invariants and the qualitative results
 * the paper reports.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/simulation.hh"

namespace vip
{
namespace
{

SocConfig
quickCfg(SystemConfig sc, double seconds = 0.15)
{
    SocConfig cfg;
    cfg.system = sc;
    cfg.simSeconds = seconds;
    return cfg;
}

TEST(Simulation, SingleAppBaselineCompletesFrames)
{
    auto s = Simulation::run(quickCfg(SystemConfig::Baseline),
                             WorkloadCatalog::single(5));
    EXPECT_GT(s.framesCompleted, 0u);
    EXPECT_GT(s.framesGenerated, 0u);
    EXPECT_GT(s.totalEnergyMj, 0.0);
    EXPECT_GT(s.interrupts, 0u);
    EXPECT_GT(s.cpuActiveMs, 0.0);
    EXPECT_GT(s.avgMemBandwidthGBps, 0.0);
}

TEST(Simulation, EveryConfigRunsEveryWorkload)
{
    // Smoke coverage: all 5 configs x (one single app + one multi-app)
    // finish without panics and complete frames.
    for (auto c : kAllConfigs) {
        for (auto &wl : {WorkloadCatalog::single(1),
                         WorkloadCatalog::byIndex(4)}) {
            auto s = Simulation::run(quickCfg(c, 0.1), wl);
            EXPECT_GT(s.framesCompleted, 0u)
                << systemConfigName(c) << "/" << wl.name;
        }
    }
}

TEST(Simulation, EnergyCategoriesSumToTotal)
{
    auto s = Simulation::run(quickCfg(SystemConfig::VIP),
                             WorkloadCatalog::byIndex(1));
    double sum = s.cpuEnergyMj + s.dramEnergyMj + s.saEnergyMj +
                 s.ipEnergyMj + s.bufferEnergyMj;
    EXPECT_NEAR(sum, s.totalEnergyMj, s.totalEnergyMj * 1e-9);
}

TEST(Simulation, DeterministicForSameSeed)
{
    auto a = Simulation::run(quickCfg(SystemConfig::VIP),
                             WorkloadCatalog::byIndex(4));
    auto b = Simulation::run(quickCfg(SystemConfig::VIP),
                             WorkloadCatalog::byIndex(4));
    EXPECT_EQ(a.framesCompleted, b.framesCompleted);
    EXPECT_EQ(a.interrupts, b.interrupts);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.totalEnergyMj, b.totalEnergyMj);
    EXPECT_DOUBLE_EQ(a.meanFlowTimeMs, b.meanFlowTimeMs);
}

TEST(Simulation, SeedChangesJitterButNotStructure)
{
    auto cfg = quickCfg(SystemConfig::Baseline);
    auto a = Simulation::run(cfg, WorkloadCatalog::byIndex(1));
    cfg.seed = 99;
    auto b = Simulation::run(cfg, WorkloadCatalog::byIndex(1));
    EXPECT_NE(a.totalEnergyMj, b.totalEnergyMj);
    EXPECT_NEAR(static_cast<double>(a.framesCompleted),
                static_cast<double>(b.framesCompleted),
                4.0);
}

TEST(Simulation, ChainedModesBypassDram)
{
    // IP-to-IP communication must cut DRAM traffic drastically
    // (the Section 4.2 claim).
    auto base = Simulation::run(quickCfg(SystemConfig::Baseline),
                                WorkloadCatalog::byIndex(1));
    auto chained = Simulation::run(quickCfg(SystemConfig::IpToIp),
                                   WorkloadCatalog::byIndex(1));
    EXPECT_LT(chained.memBytesGB, base.memBytesGB * 0.2);
    EXPECT_LT(chained.dramEnergyMj, base.dramEnergyMj * 0.5);
}

TEST(Simulation, BurstsCutInterruptsAndCpuTime)
{
    // Fig 16: frame bursts slash the interrupt rate and CPU activity.
    auto base = Simulation::run(quickCfg(SystemConfig::Baseline),
                                WorkloadCatalog::byIndex(1));
    auto burst = Simulation::run(quickCfg(SystemConfig::FrameBurst),
                                 WorkloadCatalog::byIndex(1));
    EXPECT_LT(burst.interruptsPer100ms,
              base.interruptsPer100ms * 0.4);
    EXPECT_LT(burst.cpuActiveMs, base.cpuActiveMs);
    EXPECT_LT(burst.instructions, base.instructions);
}

TEST(Simulation, VipReducesEnergyVsBaseline)
{
    auto base = Simulation::run(quickCfg(SystemConfig::Baseline),
                                WorkloadCatalog::byIndex(1));
    auto vip = Simulation::run(quickCfg(SystemConfig::VIP),
                               WorkloadCatalog::byIndex(1));
    EXPECT_LT(vip.energyPerFrameMj, base.energyPerFrameMj);
}

TEST(Simulation, VipBeatsNonVirtualizedBurstsOnQoS)
{
    // The headline claim: with multiple applications sharing IPs,
    // IP-to-IP + FrameBurst suffers head-of-line blocking that VIP's
    // virtualized EDF scheduling removes.
    auto cfg_fb = quickCfg(SystemConfig::IpToIpBurst, 0.3);
    auto cfg_vip = quickCfg(SystemConfig::VIP, 0.3);
    std::uint64_t fbViol = 0, vipViol = 0;
    for (int w : {1, 2, 7}) {
        fbViol +=
            Simulation::run(cfg_fb, WorkloadCatalog::byIndex(w))
                .violations;
        vipViol +=
            Simulation::run(cfg_vip, WorkloadCatalog::byIndex(w))
                .violations;
    }
    EXPECT_LT(vipViol, fbViol);
}

TEST(Simulation, InterruptRateOrdering)
{
    // Baseline interrupts per frame per stage; IP-to-IP one per
    // frame; burst modes one per burst.
    auto wl = WorkloadCatalog::single(5);
    auto base = Simulation::run(quickCfg(SystemConfig::Baseline), wl);
    auto chained = Simulation::run(quickCfg(SystemConfig::IpToIp), wl);
    auto vip = Simulation::run(quickCfg(SystemConfig::VIP), wl);
    EXPECT_GT(base.interruptsPer100ms, chained.interruptsPer100ms);
    EXPECT_GT(chained.interruptsPer100ms, vip.interruptsPer100ms);
}

TEST(Simulation, IdealMemoryRaisesIpUtilization)
{
    // Fig 3b: with ideal memory, IP utilization approaches 100%.
    auto cfg = quickCfg(SystemConfig::Baseline);
    auto real = Simulation::run(cfg, WorkloadCatalog::byIndex(2));
    cfg.dram.ideal = true;
    auto ideal = Simulation::run(cfg, WorkloadCatalog::byIndex(2));
    const auto *vd_r = real.ip("VD");
    const auto *vd_i = ideal.ip("VD");
    ASSERT_NE(vd_r, nullptr);
    ASSERT_NE(vd_i, nullptr);
    EXPECT_GT(vd_i->utilization, vd_r->utilization);
    EXPECT_GT(vd_i->utilization, 0.9);
}

TEST(Simulation, TraceRecordsEveryCompletedFrame)
{
    auto cfg = quickCfg(SystemConfig::Baseline);
    cfg.recordTrace = true;
    Simulation sim(cfg, WorkloadCatalog::single(5));
    auto s = sim.run();
    std::uint64_t all = 0;
    for (const auto &f : s.flows)
        all += f.completed;
    EXPECT_EQ(s.trace.size(), all);
    for (const auto &e : s.trace.events()) {
        EXPECT_LE(e.started, e.completed);
        EXPECT_GE(e.deadline, e.generated);
        if (e.dropped) {
            EXPECT_TRUE(e.violated);
        }
    }
}

TEST(Simulation, PerFlowResultsAreConsistent)
{
    Simulation sim(quickCfg(SystemConfig::VIP),
                   WorkloadCatalog::byIndex(4));
    auto s = sim.run();
    std::uint64_t qos_completed = 0;
    for (const auto &f : s.flows) {
        EXPECT_LE(f.completed, f.generated);
        EXPECT_LE(f.drops, f.violations); // a drop is also a miss
        EXPECT_LE(f.violations, f.completed);
        if (f.qosCritical)
            qos_completed += f.completed;
    }
    EXPECT_EQ(qos_completed, s.framesCompleted);
}

TEST(Simulation, RunTwiceIsFatal)
{
    // Calling run() twice is an API misuse a user can commit, not an
    // internal invariant violation: it must surface as SimFatal.
    Simulation sim(quickCfg(SystemConfig::Baseline, 0.05),
                   WorkloadCatalog::single(3));
    sim.run();
    EXPECT_THROW(sim.run(), SimFatal);
}

TEST(Simulation, AudioOnlyAppIsCheap)
{
    auto audio = Simulation::run(quickCfg(SystemConfig::Baseline),
                                 WorkloadCatalog::single(3));
    auto video = Simulation::run(quickCfg(SystemConfig::Baseline),
                                 WorkloadCatalog::single(5));
    EXPECT_LT(audio.totalEnergyMj, video.totalEnergyMj);
    EXPECT_LT(audio.avgMemBandwidthGBps, video.avgMemBandwidthGBps);
}

TEST(Simulation, GameAppProcessesTouchInput)
{
    // Game workloads must keep completing frames with the touch model
    // active under burst scheduling (hybrid policy).
    auto s = Simulation::run(quickCfg(SystemConfig::VIP, 0.5),
                             WorkloadCatalog::single(1));
    EXPECT_GT(s.framesCompleted, 20u);
    EXPECT_GT(s.achievedFps, 30.0);
}

/** One vip_sim run: its exit status (-1 unless it exited) and its
 *  stdout and stderr, interleaved. */
struct CliRun
{
    int exit = -1;
    std::string out;
};

CliRun
vipSim(const std::string &args)
{
    // -k: a run that ignores SIGTERM is killed 5 s later and fails
    // its test instead of wedging the suite.
    const std::string cmd = std::string("timeout -k 5 10 ") + VIP_SIM_PATH +
                            " " + args + " 2>&1";
    CliRun r;
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p))
        r.out += buf;
    const int status = ::pclose(p);
    if (WIFEXITED(status))
        r.exit = WEXITSTATUS(status);
    return r;
}

bool
hasLine(const std::string &out, const std::string &prefix)
{
    return out.rfind(prefix, 0) == 0 ||
           out.find("\n" + prefix) != std::string::npos;
}

TEST(VipSimCli, RejectsBadFlagValues)
{
    // Each bad value must fail fast with exit 1 and a "fatal:" line:
    // no wrap-around to a huge run, no std::bad_alloc abort, no
    // silent zero or default.
    const char *bad[] = {
        "--seconds -1",        "--seconds abc",
        "--seconds inf",       "--lanes -3",
        "--lane-bytes -1",     "--burst 2.5",
        "--sched bogus",       "--guard-ms -1",
        "--trace-buffer 0",    "--prof-sample-every x",
        "--checkpoint-every-ms 0", "--metrics-interval-ms -1",
        "--fault-hang 2",      "--seed 1x",
        // Periods that truncate to zero ticks, or are not finite,
        // would spin at one tick or cast undefinedly.
        "--metrics-interval-ms 1e-10 --checkpoint-on-steady",
        "--audit periodic:1e-10", "--audit periodic:nan",
        "--audit periodic:inf",   "--guard-ms 1e-10",
        // A column glob with no CSV to pick columns for.
        "--ts=*",
    };
    for (const char *args : bad) {
        SCOPED_TRACE(args);
        const CliRun r = vipSim(std::string(args) + " --seconds 0.01");
        EXPECT_EQ(r.exit, 1) << r.out;
        EXPECT_TRUE(hasLine(r.out, "fatal: ")) << r.out;
    }
}

TEST(VipSimCli, UnwritableOutputFailsBeforeTheRun)
{
    // Every file vip_sim writes after the run is opened before the
    // first event: an unwritable path is a fatal error naming the
    // flag, and no report is printed because nothing was simulated.
    const char *outputs[] = {
        "--stats-out /nonexistent/stats.json",
        "--prof=/nonexistent/prof.json",
        "--trace-out /nonexistent/trace.json",
        "--digest-out /nonexistent/run.dig",
        "--frame-csv /nonexistent/frames.csv",
    };
    for (const std::string args : outputs) {
        SCOPED_TRACE(args);
        const CliRun r = vipSim(args + " --seconds 0.05");
        const std::string flag = args.substr(0, args.find_first_of(" ="));
        EXPECT_EQ(r.exit, 1) << r.out;
        EXPECT_TRUE(hasLine(r.out, "fatal: " + flag + ": ")) << r.out;
        EXPECT_EQ(r.out.find("===="), std::string::npos) << r.out;
    }
}

TEST(VipSimCli, NamesTheCadenceBoundariesThatNeverQuiesced)
{
    // Baseline x W1 is memory-bound: once its flows start, some frame
    // or DRAM transfer is always in flight, so no cadence boundary
    // reaches a quiescent point and --checkpoint-out stays empty.
    // The warning must say so, with the count: 0.3 s at 50 ms passes
    // six boundaries.
    const std::string ck =
        ::testing::TempDir() + "vip-never-quiescent.vips";
    std::filesystem::remove(ck);
    const CliRun r = vipSim("--workload W1 --config baseline "
                            "--seconds 0.3 --checkpoint-every-ms 50 "
                            "--checkpoint-out " + ck);
    EXPECT_EQ(r.exit, 0) << r.out;
    EXPECT_NE(r.out.find("6 cadence boundaries (every 50 ms) passed, "
                         "but the platform never reached a quiescent "
                         "point after them; no snapshot written to " +
                         ck),
              std::string::npos)
        << r.out;
    EXPECT_FALSE(std::filesystem::exists(ck));

    // The same cell reaches steady state but never a quiescent point
    // after it, so the warm-start one-shot is never written: the
    // summary must not name a snapshot that does not exist.
    const std::string st =
        ::testing::TempDir() + "vip-never-quiescent-steady.vips";
    std::filesystem::remove(st);
    const CliRun s = vipSim("--workload W1 --config baseline "
                            "--seconds 0.4 --checkpoint-on-steady=" + st);
    EXPECT_EQ(s.exit, 0) << s.out;
    EXPECT_TRUE(hasLine(s.out, "steady      : detected at 188.000 ms, "
                               "but the platform never reached a "
                               "quiescent point after it; no snapshot "
                               "written to " + st))
        << s.out;
    EXPECT_EQ(s.out.find("warm-start snapshot"), std::string::npos)
        << s.out;
    EXPECT_FALSE(std::filesystem::exists(st));
}

TEST(VipSimCli, RejectsTheDeletedSeriesFlags)
{
    // The metrics CSV is the sampler's one output: there is no
    // second series file to name and no switch that arms the sampler
    // without a consumer, so these are unknown options, never
    // silently ignored.
    for (const char *args : {"--ts", "--ts-out s.json", "--ts-out=s.json"}) {
        SCOPED_TRACE(args);
        const CliRun r = vipSim(std::string(args) + " --seconds 0.01");
        EXPECT_EQ(r.exit, 1) << r.out;
        EXPECT_NE(r.out.find("unknown option"), std::string::npos) << r.out;
        EXPECT_EQ(r.out.find("===="), std::string::npos) << r.out;
    }
}

} // namespace
} // namespace vip
