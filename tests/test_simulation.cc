/**
 * @file
 * Integration tests: whole-platform runs under every system
 * configuration, checking the invariants and the qualitative results
 * the paper reports.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
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
    };
    for (const char *args : bad) {
        SCOPED_TRACE(args);
        const std::string cmd = std::string("timeout 10 ") +
                                VIP_SIM_PATH + " " + args +
                                " --seconds 0.01 2>&1";
        FILE *p = ::popen(cmd.c_str(), "r");
        ASSERT_NE(p, nullptr);
        std::string out;
        char buf[256];
        while (std::fgets(buf, sizeof(buf), p))
            out += buf;
        const int status = ::pclose(p);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 1) << out;
        EXPECT_TRUE(out.rfind("fatal: ", 0) == 0 ||
                    out.find("\nfatal: ") != std::string::npos)
            << out;
    }
}

} // namespace
} // namespace vip
