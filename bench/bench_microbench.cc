/**
 * @file
 * google-benchmark wall cost of a whole-platform run, bare and with
 * the tracer armed.  Per-layer and end-to-end simulator speed are
 * vip_bench's job.
 */

#include <benchmark/benchmark.h>

#include "core/simulation.hh"

namespace
{

using namespace vip;

void
BM_FullPlatformVipRun(benchmark::State &state)
{
    for (auto _ : state) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.05;
        auto s = Simulation::run(cfg, WorkloadCatalog::byIndex(4));
        benchmark::DoNotOptimize(s.framesCompleted);
    }
}
BENCHMARK(BM_FullPlatformVipRun)->Unit(benchmark::kMillisecond);

/**
 * Same platform run with the tracer enabled, so tracing overhead is
 * measured rather than assumed.  Two points on the cost curve:
 * everything-on records per-unit execution spans (hundreds of
 * thousands of events per run, tens of percent overhead), while the
 * frame-lifecycle mask used for QoS triage stays within a few percent
 * of untraced.  With tracing off the System's tracer pointer is null
 * and every emission site is a single branch (~0%).
 */
void
BM_FullPlatformVipRunTraced(benchmark::State &state,
                            std::uint32_t categories)
{
    for (auto _ : state) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.05;
        // Any non-empty path constructs the tracer; nothing is
        // written unless the caller asks for it after the run.
        cfg.trace.out = "(buffer)";
        cfg.trace.categories = categories;
        auto s = Simulation::run(cfg, WorkloadCatalog::byIndex(4));
        benchmark::DoNotOptimize(s.framesCompleted);
    }
}
BENCHMARK_CAPTURE(BM_FullPlatformVipRunTraced, AllCats, kAllTraceCats)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullPlatformVipRunTraced, FrameLifecycle,
                  static_cast<std::uint32_t>(TraceCat::Frame)
                      | static_cast<std::uint32_t>(TraceCat::Sched)
                      | static_cast<std::uint32_t>(TraceCat::Fault))
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
