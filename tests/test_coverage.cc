/**
 * @file
 * Additional coverage: IP taxonomy, configuration traits, RunStats
 * helpers, allocator behaviour, and cross-cutting platform checks
 * that don't fit the per-module files.
 */

#include <gtest/gtest.h>

#include "core/simulation.hh"
#include "mem/mem_types.hh"

namespace vip
{
namespace
{

TEST(IpTaxonomy, NamesAreStableAndUnique)
{
    std::set<std::string> seen;
    for (int i = 0; i < static_cast<int>(IpKind::NumKinds); ++i) {
        std::string n = ipKindName(static_cast<IpKind>(i));
        EXPECT_NE(n, "?");
        EXPECT_TRUE(seen.insert(n).second) << "duplicate name " << n;
    }
}

TEST(IpTaxonomy, SourcesAndSinksAreDisjoint)
{
    for (int i = 0; i < static_cast<int>(IpKind::NumKinds); ++i) {
        auto k = static_cast<IpKind>(i);
        EXPECT_FALSE(ipIsSource(k) && ipIsSink(k)) << ipKindName(k);
    }
    EXPECT_TRUE(ipIsSource(IpKind::CAM));
    EXPECT_TRUE(ipIsSource(IpKind::MIC));
    EXPECT_TRUE(ipIsSink(IpKind::DC));
    EXPECT_TRUE(ipIsSink(IpKind::NW));
    EXPECT_TRUE(ipIsSink(IpKind::SND));
    EXPECT_TRUE(ipIsSink(IpKind::MMC));
}

TEST(IpTaxonomy, DefaultParamsExistForEveryHardwareKind)
{
    for (int i = 1; i < static_cast<int>(IpKind::NumKinds); ++i) {
        auto k = static_cast<IpKind>(i);
        IpParams p = defaultIpParams(k);
        EXPECT_GT(p.clockHz, 0.0) << ipKindName(k);
        EXPECT_GT(p.bytesPerCycle, 0.0) << ipKindName(k);
        EXPECT_GE(p.numLanes, 1u);
    }
    EXPECT_THROW(defaultIpParams(IpKind::CPU), SimPanic);
}

TEST(IpTaxonomy, EnumHelpersNameEverything)
{
    EXPECT_STREQ(schedPolicyName(SchedPolicy::EDF), "edf");
    EXPECT_STREQ(schedPolicyName(SchedPolicy::FIFO), "fifo");
    EXPECT_STREQ(schedPolicyName(SchedPolicy::RoundRobin), "rr");
    EXPECT_STREQ(switchGranularityName(SwitchGranularity::Subframe),
                 "subframe");
    EXPECT_STREQ(switchGranularityName(SwitchGranularity::Frame),
                 "frame");
    EXPECT_STREQ(
        switchGranularityName(SwitchGranularity::Transaction),
        "transaction");
}

TEST(ConfigTraits, MatchTheFiveSystems)
{
    auto t = traitsOf(SystemConfig::Baseline);
    EXPECT_FALSE(t.ipToIp || t.frameBurst || t.virtualized);
    t = traitsOf(SystemConfig::FrameBurst);
    EXPECT_TRUE(!t.ipToIp && t.frameBurst && !t.virtualized);
    t = traitsOf(SystemConfig::IpToIp);
    EXPECT_TRUE(t.ipToIp && !t.frameBurst && !t.virtualized);
    t = traitsOf(SystemConfig::IpToIpBurst);
    EXPECT_TRUE(t.ipToIp && t.frameBurst && !t.virtualized);
    t = traitsOf(SystemConfig::VIP);
    EXPECT_TRUE(t.ipToIp && t.frameBurst && t.virtualized);
    EXPECT_EQ(std::size(kAllConfigs), 5u);
}

TEST(ConfigTraits, IpParamsFollowTheConfiguration)
{
    SocConfig cfg;
    cfg.system = SystemConfig::Baseline;
    EXPECT_EQ(cfg.ipParamsFor(IpKind::VD).numLanes, 1u);

    cfg.system = SystemConfig::IpToIp;
    auto p = cfg.ipParamsFor(IpKind::VD);
    EXPECT_EQ(p.numLanes, cfg.vipLanes);
    EXPECT_EQ(p.switchGranularity, SwitchGranularity::Frame);
    EXPECT_EQ(p.sched, SchedPolicy::FIFO);

    cfg.system = SystemConfig::IpToIpBurst;
    EXPECT_EQ(cfg.ipParamsFor(IpKind::VD).switchGranularity,
              SwitchGranularity::Transaction);

    cfg.system = SystemConfig::VIP;
    p = cfg.ipParamsFor(IpKind::VD);
    EXPECT_EQ(p.switchGranularity, SwitchGranularity::Subframe);
    EXPECT_EQ(p.sched, SchedPolicy::EDF);
}

TEST(ConfigTraits, OverridesAreRespected)
{
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    IpParams fast = defaultIpParams(IpKind::VD);
    fast.bytesPerCycle = 99.0;
    cfg.ipOverrides[IpKind::VD] = fast;
    EXPECT_DOUBLE_EQ(cfg.ipParamsFor(IpKind::VD).bytesPerCycle, 99.0);
    // Virtualization plumbing still applies on top of the override.
    EXPECT_EQ(cfg.ipParamsFor(IpKind::VD).sched, SchedPolicy::EDF);
}

TEST(FrameAllocator, AlignsAndWraps)
{
    FrameAllocator alloc(1 << 20); // 1 MiB window
    Addr a = alloc.allocate(100);
    Addr b = alloc.allocate(100);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_EQ(b - a, 4096u);
    // Exhaust the window: the allocator wraps instead of failing.
    for (int i = 0; i < 300; ++i)
        alloc.allocate(8192);
    Addr c = alloc.allocate(64);
    EXPECT_LT(c, Addr(1) << 20);
}

TEST(RunStatsHelpers, IpLookup)
{
    SocConfig cfg;
    cfg.system = SystemConfig::Baseline;
    cfg.simSeconds = 0.08;
    auto s = Simulation::run(cfg, WorkloadCatalog::single(5));
    EXPECT_NE(s.ip("VD"), nullptr);
    EXPECT_NE(s.ip("DC"), nullptr);
    EXPECT_EQ(s.ip("GPU"), nullptr); // A5 has no GPU stage
}

TEST(Platform, OnlyRequiredIpsAreInstantiated)
{
    SocConfig cfg;
    cfg.simSeconds = 0.05;
    Simulation sim(cfg, WorkloadCatalog::single(3)); // Audio-Play
    EXPECT_NE(sim.ip(IpKind::AD), nullptr);
    EXPECT_NE(sim.ip(IpKind::SND), nullptr);
    EXPECT_NE(sim.ip(IpKind::DC), nullptr);
    EXPECT_EQ(sim.ip(IpKind::VD), nullptr);
    EXPECT_EQ(sim.ip(IpKind::CAM), nullptr);
}

TEST(Platform, ThreeAppWorkloadSharesOneDecoder)
{
    // W2 runs three video players; they must contend for a single VD
    // instance (the paper's shared-IP premise), not get one each.
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.15;
    Simulation sim(cfg, WorkloadCatalog::byIndex(2));
    auto s = sim.run();
    ASSERT_NE(sim.ip(IpKind::VD), nullptr);
    EXPECT_EQ(sim.ip(IpKind::VD)->boundLanes(), 3u);
    EXPECT_GT(s.framesCompleted, 0u);
}

TEST(Platform, HeavierWorkloadsUseMoreEnergy)
{
    SocConfig cfg;
    cfg.simSeconds = 0.1;
    auto one = Simulation::run(cfg, WorkloadCatalog::single(5));
    auto three = Simulation::run(cfg, WorkloadCatalog::byIndex(2));
    EXPECT_GT(three.totalEnergyMj, one.totalEnergyMj);
    EXPECT_GT(three.avgMemBandwidthGBps, one.avgMemBandwidthGBps);
}

TEST(Platform, IdealMemoryNeverSlowsAnythingDown)
{
    for (auto c : {SystemConfig::Baseline, SystemConfig::VIP}) {
        SocConfig cfg;
        cfg.system = c;
        cfg.simSeconds = 0.12;
        auto real = Simulation::run(cfg, WorkloadCatalog::byIndex(1));
        cfg.dram.ideal = true;
        auto ideal = Simulation::run(cfg, WorkloadCatalog::byIndex(1));
        EXPECT_LE(ideal.meanFlowTimeMs, real.meanFlowTimeMs * 1.05)
            << systemConfigName(c);
        EXPECT_LE(ideal.violations, real.violations + 1)
            << systemConfigName(c);
    }
}

TEST(Platform, ChainedModesSlashInterruptsPerFrame)
{
    SocConfig cfg;
    cfg.simSeconds = 0.2;
    cfg.system = SystemConfig::Baseline;
    auto base = Simulation::run(cfg, WorkloadCatalog::single(5));
    cfg.system = SystemConfig::VIP;
    auto vip = Simulation::run(cfg, WorkloadCatalog::single(5));
    double basePerFrame = static_cast<double>(base.interrupts) /
                          std::max<double>(1, base.framesCompleted);
    double vipPerFrame = static_cast<double>(vip.interrupts) /
                         std::max<double>(1, vip.framesCompleted);
    // Baseline: >= one interrupt per stage per frame; VIP: one per
    // burst (5 frames).
    EXPECT_GT(basePerFrame, 1.5);
    EXPECT_LT(vipPerFrame, 0.7);
}

TEST(Platform, MemoryTrafficAttributionSumsToTotal)
{
    // Per-IP DRAM attribution must account for (nearly) all traffic:
    // in the baseline every byte is moved by some IP's DMA engine.
    SocConfig cfg;
    cfg.system = SystemConfig::Baseline;
    cfg.simSeconds = 0.1;
    Simulation sim(cfg, WorkloadCatalog::byIndex(1));
    auto s = sim.run();
    std::uint64_t attributed = 0;
    for (const auto &ip : s.ips)
        attributed += ip.memBytes;
    std::uint64_t total =
        sim.memory().bytesRead() + sim.memory().bytesWritten();
    EXPECT_EQ(attributed, total);
    // The decoder and display dominate a video workload.
    ASSERT_NE(s.ip("VD"), nullptr);
    ASSERT_NE(s.ip("DC"), nullptr);
    EXPECT_GT(s.ip("VD")->memBytes, 10u * 1024 * 1024);
    EXPECT_GT(s.ip("DC")->memBytes, 10u * 1024 * 1024);
}

TEST(Platform, ChainedModeAttributionShrinksToHeadReads)
{
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.1;
    Simulation sim(cfg, WorkloadCatalog::byIndex(1));
    auto s = sim.run();
    // Only the chain heads (VD, AD) read their compressed inputs;
    // the display controller no longer touches DRAM at all.
    ASSERT_NE(s.ip("DC"), nullptr);
    EXPECT_EQ(s.ip("DC")->memBytes, 0u);
    EXPECT_GT(s.ip("VD")->memBytes, 0u);
}

TEST(Platform, SleepFractionRisesWithBursts)
{
    SocConfig cfg;
    cfg.simSeconds = 0.25;
    cfg.system = SystemConfig::Baseline;
    auto base = Simulation::run(cfg, WorkloadCatalog::single(5));
    cfg.system = SystemConfig::VIP;
    auto vip = Simulation::run(cfg, WorkloadCatalog::single(5));
    EXPECT_GT(vip.cpuSleepFraction, base.cpuSleepFraction);
}

} // namespace
} // namespace vip
