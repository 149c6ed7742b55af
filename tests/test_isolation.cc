/**
 * @file
 * Run-state isolation tests: the library keeps every piece of
 * mutable run state inside System/Simulation (the only process-wide
 * global is the logging verbosity, which is deliberate and atomic),
 * so multiple simulations in one process — alive at once, sequential,
 * or on concurrent threads — must produce digest streams and stats
 * bit-identical to the same runs executed alone.  vip_bench and the
 * gtests rely on it: each runs many simulations in one process.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "core/simulation.hh"

namespace vip
{
namespace
{

SocConfig
cfgFor(SystemConfig sc, std::uint64_t seed)
{
    SocConfig cfg;
    cfg.system = sc;
    cfg.simSeconds = 0.05;
    cfg.seed = seed;
    cfg.audit.mode = AuditMode::Periodic;
    cfg.audit.periodMs = 1.0;
    return cfg;
}

/** Digest-stream hash + full stats dump of one finished run. */
struct Fingerprint
{
    std::uint64_t digest = 0;
    std::string stats;

    bool
    operator==(const Fingerprint &o) const
    {
        return digest == o.digest && stats == o.stats;
    }
};

Fingerprint
fingerprint(Simulation &sim)
{
    Fingerprint f;
    f.digest = sim.auditor().streamDigest();
    std::ostringstream os;
    sim.writeStatsJson(os);
    f.stats = os.str();
    return f;
}

/** Run one isolated simulation and fingerprint it. */
Fingerprint
soloRun(SystemConfig sc, std::uint64_t seed)
{
    Simulation sim(cfgFor(sc, seed), WorkloadCatalog::single(1));
    sim.run();
    return fingerprint(sim);
}

TEST(Isolation, TwoLiveInstancesMatchSoloRunsBitForBit)
{
    const Fingerprint wantA = soloRun(SystemConfig::VIP, 1);
    const Fingerprint wantB = soloRun(SystemConfig::Baseline, 2);
    ASSERT_NE(wantA.digest, 0u);
    ASSERT_NE(wantA.digest, wantB.digest);

    // Both instances alive at once, runs interleaved with the other
    // instance constructed: any hidden global (RNG, event ids, stat
    // registries, allocators) would skew one of the digest streams.
    Simulation a(cfgFor(SystemConfig::VIP, 1),
                 WorkloadCatalog::single(1));
    Simulation b(cfgFor(SystemConfig::Baseline, 2),
                 WorkloadCatalog::single(1));
    a.run();
    b.run();
    EXPECT_TRUE(fingerprint(a) == wantA);
    EXPECT_TRUE(fingerprint(b) == wantB);
}

TEST(Isolation, RepeatedRunsInOneProcessAreIdentical)
{
    const Fingerprint first = soloRun(SystemConfig::VIP, 1);
    const Fingerprint second = soloRun(SystemConfig::VIP, 1);
    EXPECT_TRUE(first == second);
}

TEST(Isolation, ConcurrentThreadsMatchSoloRunsBitForBit)
{
    const Fingerprint wantA = soloRun(SystemConfig::VIP, 1);
    const Fingerprint wantB = soloRun(SystemConfig::FrameBurst, 3);

    // Two full platforms running simultaneously on different
    // threads.  Each must be oblivious to the other.
    Fingerprint gotA, gotB;
    std::thread ta([&gotA] {
        Simulation sim(cfgFor(SystemConfig::VIP, 1),
                       WorkloadCatalog::single(1));
        sim.run();
        gotA = fingerprint(sim);
    });
    std::thread tb([&gotB] {
        Simulation sim(cfgFor(SystemConfig::FrameBurst, 3),
                       WorkloadCatalog::single(1));
        sim.run();
        gotB = fingerprint(sim);
    });
    ta.join();
    tb.join();
    EXPECT_TRUE(gotA == wantA);
    EXPECT_TRUE(gotB == wantB);
}

} // namespace
} // namespace vip
