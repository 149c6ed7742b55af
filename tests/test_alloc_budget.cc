/**
 * @file
 * Heap-allocation budget of the memory path.
 *
 * Replaces the global operator new/delete with counting versions (so
 * this is its own executable) and runs the memory-bound cells,
 * Baseline x W1 and FrameBurst x W1, for two lengths.  Set-up and
 * collection cost the same for both, so the difference is what the
 * extra simulated time allocates: an IP's DMA request crossing the
 * System Agent into DRAM must not allocate once the pools have grown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/simulation.hh"

namespace
{

std::atomic<std::uint64_t> gAllocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The deletes stay out of line: inlined, GCC sees free() take a
// pointer from operator new and reports a mismatched deallocation.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace vip
{
namespace
{

/** Heap allocations made by building and running @p sc x W1. */
std::uint64_t
allocsFor(SystemConfig sc, double seconds)
{
    const std::uint64_t before = gAllocs.load();
    {
        SocConfig cfg;
        cfg.system = sc;
        cfg.simSeconds = seconds;
        Simulation sim(cfg, WorkloadCatalog::byIndex(1));
        sim.run();
    }
    return gAllocs.load() - before;
}

/** 0.2 extra simulated seconds may cost at most 2,000 allocations
 *  (10k per simulated second; the memory path alone made ~7M). */
void
expectSteadyStateBudget(SystemConfig sc)
{
    const std::uint64_t shortRun = allocsFor(sc, 0.1);
    const std::uint64_t longRun = allocsFor(sc, 0.3);
    ASSERT_GT(shortRun, 0u) << "the counting operator new is not linked";
    const std::uint64_t extra = longRun > shortRun ? longRun - shortRun : 0;
    EXPECT_LE(extra, 2000u) << "0.1 s: " << shortRun
                            << " allocations, 0.3 s: " << longRun;
}

TEST(AllocBudget, BaselineW1SteadyState)
{
    expectSteadyStateBudget(SystemConfig::Baseline);
}

TEST(AllocBudget, FrameBurstW1SteadyState)
{
    expectSteadyStateBudget(SystemConfig::FrameBurst);
}

} // namespace
} // namespace vip
