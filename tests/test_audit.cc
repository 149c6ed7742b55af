/**
 * @file
 * Tests for the invariant auditor and the deterministic state-digest
 * subsystem: digest primitives, --audit parsing, stream round-trips,
 * divergence triage, determinism-by-digest across the system
 * configurations, and the end-to-end detection of an injected
 * accounting bug.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/simulation.hh"
#include "sim/audit.hh"

namespace vip
{
namespace
{

// --------------------------------------------------------------------
// StateDigest primitives
// --------------------------------------------------------------------

TEST(StateDigest, OrderSensitive)
{
    StateDigest a, b;
    a.add(std::uint64_t{1});
    a.add(std::uint64_t{2});
    b.add(std::uint64_t{2});
    b.add(std::uint64_t{1});
    EXPECT_NE(a.value(), b.value());
}

TEST(StateDigest, StringsAreLengthPrefixed)
{
    // "ab" + "c" must not collide with "a" + "bc".
    StateDigest a, b;
    a.add(std::string("ab"));
    a.add(std::string("c"));
    b.add(std::string("a"));
    b.add(std::string("bc"));
    EXPECT_NE(a.value(), b.value());
}

TEST(StateDigest, NegativeZeroNormalized)
{
    StateDigest a, b;
    a.add(0.0);
    b.add(-0.0);
    EXPECT_EQ(a.value(), b.value());
}

// --------------------------------------------------------------------
// AuditConfig parsing
// --------------------------------------------------------------------

TEST(AuditConfig, ParseModes)
{
    EXPECT_EQ(AuditConfig::parse("off").mode, AuditMode::Off);
    EXPECT_EQ(AuditConfig::parse("final").mode, AuditMode::Final);
    EXPECT_EQ(AuditConfig::parse("strict").mode, AuditMode::Strict);
    auto p = AuditConfig::parse("periodic");
    EXPECT_EQ(p.mode, AuditMode::Periodic);
    EXPECT_DOUBLE_EQ(p.periodMs, 1.0);
    auto p5 = AuditConfig::parse("periodic:0.5");
    EXPECT_EQ(p5.mode, AuditMode::Periodic);
    EXPECT_DOUBLE_EQ(p5.periodMs, 0.5);
    EXPECT_FALSE(AuditConfig::parse("off").enabled());
    EXPECT_TRUE(AuditConfig::parse("strict").strict());
    EXPECT_TRUE(AuditConfig::parse("strict").periodic());
    EXPECT_FALSE(AuditConfig::parse("final").periodic());
}

TEST(AuditConfig, ParseRejectsJunk)
{
    EXPECT_THROW(AuditConfig::parse("bogus"), SimFatal);
    EXPECT_THROW(AuditConfig::parse("periodic:nope"), SimFatal);
    EXPECT_THROW(AuditConfig::parse("periodic:-1"), SimFatal);
    EXPECT_THROW(AuditConfig::parse(""), SimFatal);
    // A period must be finite and at least one tick (1e-9 ms).
    EXPECT_THROW(AuditConfig::parse("periodic:1e-10"), SimFatal);
    EXPECT_THROW(AuditConfig::parse("periodic:nan"), SimFatal);
    EXPECT_THROW(AuditConfig::parse("periodic:inf"), SimFatal);
    EXPECT_THROW(AuditConfig::parse("periodic:1e300"), SimFatal);
    EXPECT_DOUBLE_EQ(AuditConfig::parse("periodic:1e-9").periodMs, 1e-9);
}

// --------------------------------------------------------------------
// Digest stream round-trip and divergence triage
// --------------------------------------------------------------------

DigestStream
makeStream(std::vector<DigestRecord> recs)
{
    DigestStream s;
    s.components = {"eventq", "mem", "flow.x"};
    s.records = std::move(recs);
    return s;
}

TEST(DigestStream, WriteLoadRoundTrip)
{
    Auditor a;
    // Build a stream by hand through the loader: write text, load it,
    // write again, and require byte-identical output.
    std::string text =
        "# vip-digest v1\n"
        "# schemaVersion=1\n"
        "# meta workload=W4\n"
        "1000000 eventq 00000000deadbeef\n"
        "1000000 soc.mem 0123456789abcdef\n"
        "2000000 eventq ffffffffffffffff\n";
    std::istringstream in(text);
    DigestStream s = Auditor::loadDigestStream(in);
    ASSERT_EQ(s.records.size(), 3u);
    EXPECT_EQ(s.components.size(), 2u);
    EXPECT_EQ(s.componentName(s.records[0].component), "eventq");
    EXPECT_EQ(s.componentName(s.records[1].component), "soc.mem");
    EXPECT_EQ(s.records[0].tick, 1000000u);
    EXPECT_EQ(s.records[0].digest, 0xdeadbeefull);
    EXPECT_EQ(s.records[1].digest, 0x0123456789abcdefull);
    EXPECT_EQ(s.records[2].tick, 2000000u);
}

TEST(DigestStream, FirstDivergenceIdentical)
{
    auto a = makeStream({{100, 0, 1}, {100, 1, 2}, {200, 0, 3}});
    auto b = makeStream({{100, 0, 1}, {100, 1, 2}, {200, 0, 3}});
    auto d = Auditor::firstDivergence(a, b);
    EXPECT_FALSE(d.diverged);
}

TEST(DigestStream, FirstDivergenceLocalizes)
{
    auto a = makeStream({{100, 0, 1}, {100, 1, 2}, {200, 0, 3}});
    auto b = makeStream({{100, 0, 1}, {100, 1, 9}, {200, 0, 3}});
    auto d = Auditor::firstDivergence(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_FALSE(d.truncated);
    EXPECT_EQ(d.record, 1u);
    EXPECT_EQ(d.tick, 100u);
    EXPECT_EQ(d.component, "mem");
    EXPECT_EQ(d.digestA, 2u);
    EXPECT_EQ(d.digestB, 9u);
}

TEST(DigestStream, FirstDivergenceTruncation)
{
    auto a = makeStream({{100, 0, 1}, {100, 1, 2}});
    auto b = makeStream({{100, 0, 1}});
    auto d = Auditor::firstDivergence(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_TRUE(d.truncated);
    EXPECT_EQ(d.record, 1u);
}

// --------------------------------------------------------------------
// Whole-simulation determinism by digest
// --------------------------------------------------------------------

SocConfig
auditedConfig(SystemConfig sys, std::uint64_t seed, const char *mode)
{
    SocConfig cfg;
    cfg.system = sys;
    cfg.simSeconds = 0.05;
    cfg.seed = seed;
    cfg.audit = AuditConfig::parse(mode);
    return cfg;
}

/** Run and return a copy of the digest stream. */
DigestStream
runForStream(SystemConfig sys, std::uint64_t seed,
             const Workload &wl)
{
    Simulation sim(auditedConfig(sys, seed, "periodic:1"), wl);
    sim.run();
    return sim.auditor().stream();
}

TEST(AuditDeterminism, SameSeedSameDigestsAllConfigs)
{
    const Workload wl = WorkloadCatalog::byIndex(4);
    for (auto sys : kAllConfigs) {
        auto a = runForStream(sys, 1, wl);
        auto b = runForStream(sys, 1, wl);
        ASSERT_GT(a.records.size(), 0u)
            << systemConfigName(sys);
        auto d = Auditor::firstDivergence(a, b);
        EXPECT_FALSE(d.diverged)
            << systemConfigName(sys) << " diverged at tick " << d.tick
            << " in " << d.component;
    }
}

TEST(AuditDeterminism, SameSeedSameDigestsUnderFaultPlan)
{
    const Workload wl = WorkloadCatalog::byIndex(4);
    auto runFaulty = [&] {
        auto cfg = auditedConfig(SystemConfig::VIP, 1, "periodic:1");
        cfg.fault = FaultPlan::parse("moderate");
        Simulation sim(cfg, wl);
        sim.run();
        return sim.auditor().stream();
    };
    auto a = runFaulty();
    auto b = runFaulty();
    auto d = Auditor::firstDivergence(a, b);
    EXPECT_FALSE(d.diverged)
        << "fault plan broke determinism at tick " << d.tick << " in "
        << d.component;
}

TEST(AuditDeterminism, DifferentSeedDivergenceIsLocalized)
{
    const Workload wl = WorkloadCatalog::byIndex(4);
    auto a = runForStream(SystemConfig::VIP, 1, wl);
    auto b = runForStream(SystemConfig::VIP, 2, wl);
    auto d = Auditor::firstDivergence(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_FALSE(d.component.empty());
    EXPECT_GT(d.tick, 0u); // first audit pass is at the first period
}

TEST(AuditDeterminism, StreamSurvivesTextRoundTrip)
{
    const Workload wl = WorkloadCatalog::single(5);
    Simulation sim(auditedConfig(SystemConfig::VIP, 1, "periodic:1"),
                   wl);
    sim.run();
    std::ostringstream out;
    sim.auditor().writeDigestStream(out, {"workload=A5"});
    std::istringstream in(out.str());
    auto loaded = Auditor::loadDigestStream(in);
    auto d = Auditor::firstDivergence(sim.auditor().stream(), loaded);
    EXPECT_FALSE(d.diverged);
    EXPECT_EQ(loaded.records.size(),
              sim.auditor().stream().records.size());
}

TEST(AuditDeterminism, AuditIsAPureObserver)
{
    // Enabling audits must not change simulated behavior, only
    // observe it.
    const Workload wl = WorkloadCatalog::byIndex(4);
    auto plain = Simulation::run(
        auditedConfig(SystemConfig::VIP, 1, "off"), wl);
    auto audited = Simulation::run(
        auditedConfig(SystemConfig::VIP, 1, "strict"), wl);
    EXPECT_EQ(plain.framesGenerated, audited.framesGenerated);
    EXPECT_EQ(plain.framesCompleted, audited.framesCompleted);
    EXPECT_EQ(plain.violations, audited.violations);
    EXPECT_EQ(plain.interrupts, audited.interrupts);
    EXPECT_DOUBLE_EQ(plain.totalEnergyMj, audited.totalEnergyMj);
}

// --------------------------------------------------------------------
// Strict audits across the evaluation matrix (smoke subset; the full
// A1..A7 x W1..W8 x config sweep runs as the CI audit-strict gate)
// --------------------------------------------------------------------

TEST(AuditStrict, CleanRunsPassAllConfigs)
{
    for (auto sys : kAllConfigs) {
        for (int w : {1, 4, 7}) {
            auto cfg = auditedConfig(sys, 1, "strict");
            RunStats r;
            ASSERT_NO_THROW(
                r = Simulation::run(cfg, WorkloadCatalog::byIndex(w)))
                << systemConfigName(sys) << " W" << w;
            EXPECT_EQ(r.auditViolations, 0u);
            EXPECT_GT(r.auditPasses, 0u);
            EXPECT_GT(r.auditRecords, 0u);
            EXPECT_NE(r.digestStreamHash, 0u);
        }
    }
}

TEST(AuditStrict, CleanUnderFaultInjection)
{
    // The fault path exercises watchdog resets, retries and
    // retransmissions; the ledgers must still balance.
    auto cfg = auditedConfig(SystemConfig::VIP, 1, "strict");
    cfg.fault = FaultPlan::parse("moderate");
    RunStats r;
    ASSERT_NO_THROW(
        r = Simulation::run(cfg, WorkloadCatalog::byIndex(4)));
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_GT(r.faults.injected(), 0u);
}

TEST(AuditStrict, FinalModeRunsExactlyOnePass)
{
    auto cfg = auditedConfig(SystemConfig::Baseline, 1, "final");
    auto r = Simulation::run(cfg, WorkloadCatalog::single(1));
    EXPECT_EQ(r.auditPasses, 1u);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(AuditStrict, OffModeRecordsNothing)
{
    auto cfg = auditedConfig(SystemConfig::Baseline, 1, "off");
    auto r = Simulation::run(cfg, WorkloadCatalog::single(1));
    EXPECT_EQ(r.auditPasses, 0u);
    EXPECT_EQ(r.auditRecords, 0u);
    EXPECT_EQ(r.digestStreamHash, 0u);
}

// --------------------------------------------------------------------
// Injected accounting bug: caught and localized
// --------------------------------------------------------------------

TEST(AuditBugDetection, StrictAbortsOnAccountingBug)
{
    auto cfg = auditedConfig(SystemConfig::VIP, 1, "strict");
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    ASSERT_FALSE(sim.flows().empty());
    sim.flows().front()->corruptAccountingForTest();
    try {
        sim.run();
        FAIL() << "strict audit missed the corrupted ledger";
    } catch (const SimFatal &e) {
        // The report names the component and the invariant id.
        EXPECT_NE(std::string(e.what()).find("flow."),
                  std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("flow.conservation"),
                  std::string::npos) << e.what();
    }
}

TEST(AuditBugDetection, PeriodicReportsComponentAndInvariant)
{
    auto cfg = auditedConfig(SystemConfig::VIP, 1, "periodic:1");
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    ASSERT_FALSE(sim.flows().empty());
    FlowRuntime &flow = *sim.flows().front();
    flow.corruptAccountingForTest();
    auto r = sim.run();
    EXPECT_GT(r.auditViolations, 0u);
    ASSERT_FALSE(sim.auditor().violations().empty());
    const AuditViolation &v = sim.auditor().violations().front();
    EXPECT_EQ(v.invariant, "flow.conservation");
    EXPECT_EQ(v.component, "flow." + flow.spec().name);
    EXPECT_GT(v.tick, 0u);
    EXPECT_EQ(v.lhs, v.rhs + 1); // one phantom generated frame
}

} // namespace
} // namespace vip
