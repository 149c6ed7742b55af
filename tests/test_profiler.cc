/**
 * @file
 * Profiler (--prof) tests: the digest-neutrality contract across
 * every system configuration, dispatch accounting against the event
 * queue's own counters, kind-table merging, the bounded occupancy
 * timeline, and the prof.json document vip_prof consumes.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/simulation.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"

using namespace vip;

namespace
{

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

} // namespace

TEST(Profiler, DigestNeutralAcrossAllConfigs)
{
    // The contract --prof is useless without: an armed profiler must
    // not change one bit of simulated behavior.  Audit every 1 ms
    // and require the full digest stream — not just the final state
    // hash — to match an unprofiled run, for every configuration.
    auto wl = WorkloadCatalog::byIndex(4);
    for (auto sc : kAllConfigs) {
        SCOPED_TRACE(systemConfigName(sc));

        Simulation ref(auditedCfg(sc), wl);
        ref.run();

        SocConfig cfg = auditedCfg(sc);
        cfg.prof.out = "(armed)";
        Simulation prof(cfg, wl);
        prof.run();

        ASSERT_NE(prof.profiler(), nullptr);
        EXPECT_EQ(ref.auditor().streamDigest(),
                  prof.auditor().streamDigest());
        EXPECT_EQ(ref.system().curTick(), prof.system().curTick());
        EXPECT_EQ(ref.system().eventq().servicedEvents(),
                  prof.system().eventq().servicedEvents());
    }
}

TEST(Profiler, CountsEveryDispatchAndSamplesOnSchedule)
{
    SocConfig cfg = auditedCfg(SystemConfig::VIP);
    cfg.prof.out = "(armed)";
    cfg.prof.sampleEvery = 64;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    const Profiler *p = sim.profiler();
    ASSERT_NE(p, nullptr);
    // Every serviced event is attributed to exactly one kind.
    EXPECT_EQ(p->dispatches(),
              sim.system().eventq().servicedEvents());
    // Sampling cadence: one wall-timed dispatch per sampleEvery.
    EXPECT_EQ(p->sampledDispatches(), p->dispatches() / 64);

    // The rows cover the dispatch total exactly, with no kind
    // outside the fixed catalog (untagged events fold into "other").
    std::uint64_t total = 0;
    for (const auto &r : sim.profiler()->rows()) {
        total += r.count;
        bool inCatalog = false;
        for (std::size_t i = 0; i < kProfKindCatalogSize; ++i)
            inCatalog |= r.kind == kProfKindCatalog[i];
        EXPECT_TRUE(inCatalog) << "uncataloged kind " << r.kind;
    }
    EXPECT_EQ(total, p->dispatches());

    // A VIP W4 run exercises the stream engines and the DRAM model;
    // their tags must show up with real counts.
    EXPECT_GT(p->countFor("ip.unit"), 0.0);
    EXPECT_GT(p->countFor("dram.burst"), 0.0);
}

TEST(Profiler, TimelineStaysBoundedAndOrdered)
{
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.4);
    cfg.prof.out = "(armed)";
    cfg.prof.sampleEvery = 4; // force decimation
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    const Profiler *p = sim.profiler();
    ASSERT_NE(p, nullptr);
    const auto &tl = p->timeline();
    ASSERT_FALSE(tl.empty());
    EXPECT_LE(tl.size(), 2048u);
    EXPECT_GE(p->timelineStride(), 4u);
    for (std::size_t i = 1; i < tl.size(); ++i)
        EXPECT_LE(tl[i - 1].tick, tl[i].tick);
    std::uint32_t peak = 0;
    for (const auto &s : tl)
        peak = std::max(peak, s.pending);
    EXPECT_LE(peak, p->maxPending());
    EXPECT_LE(p->maxPending(), p->maxHeap());
    EXPECT_GT(p->maxHeap(), 0u);
}

TEST(Profiler, WriteJsonParsesAndBalances)
{
    SocConfig cfg = auditedCfg(SystemConfig::VIP);
    cfg.prof.out = "prof.json";
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    std::ostringstream os;
    sim.writeProfJson(os);
    std::istringstream in(os.str());
    auto root = json::parse(in);

    EXPECT_EQ(json::strField(root, "kind"), "vip-prof");
    EXPECT_EQ(json::numField(root, "schemaVersion"),
              Profiler::kSchemaVersion);
    EXPECT_GT(json::numField(root, "sim_ms"), 0.0);
    EXPECT_GT(json::numField(root, "wall_ms"), 0.0);

    const auto *kinds = root.find("kinds");
    ASSERT_NE(kinds, nullptr);
    double total = 0;
    for (const auto &k : kinds->arr)
        total += json::numField(k, "count");
    EXPECT_EQ(total, json::numField(root, "events"));

    const auto *eq = root.find("eventq");
    ASSERT_NE(eq, nullptr);
    EXPECT_GT(json::numField(*eq, "max_pending"), 0.0);
    const auto *tl = eq->find("timeline");
    ASSERT_NE(tl, nullptr);
    EXPECT_FALSE(tl->arr.empty());
}

TEST(Profiler, StatsRegistryExposesProfNamespace)
{
    SocConfig cfg = auditedCfg(SystemConfig::VIP);
    cfg.prof.out = "(armed)";
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    std::ostringstream os;
    sim.writeStatsJson(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"prof.events\""), std::string::npos);
    EXPECT_NE(s.find("\"prof.kind.ip.unit.count\""),
              std::string::npos);
    // The logical live-set gauge is unconditional (profiler or not);
    // the heap holds exactly the live events, so there are no
    // physical heap gauges to add.
    EXPECT_NE(s.find("\"sim.eventq.live\""), std::string::npos);
    EXPECT_EQ(s.find("\"sim.eventq.heap\""), std::string::npos);
    EXPECT_EQ(s.find("\"sim.eventq.compactions\""),
              std::string::npos);

    Simulation off(auditedCfg(SystemConfig::VIP),
                   WorkloadCatalog::byIndex(4));
    off.run();
    std::ostringstream os2;
    off.writeStatsJson(os2);
    EXPECT_EQ(os2.str().find("\"prof."), std::string::npos);
    EXPECT_NE(os2.str().find("\"sim.eventq.live\""),
              std::string::npos);
    // Physical execution-history gauges diverge across restore, so
    // they must stay out of baseline (profiler-off) stats.
    EXPECT_EQ(os2.str().find("\"sim.eventq.heap\""),
              std::string::npos);
    EXPECT_EQ(os2.str().find("\"sim.eventq.compactions\""),
              std::string::npos);
}
