/**
 * @file
 * Hot-path self-profiler configuration (--prof).
 *
 * Kept in its own tiny header (like trace_config.hh) so SocConfig can
 * embed it without pulling the profiler implementation into every
 * translation unit.
 */

#ifndef VIP_OBS_PROF_CONFIG_HH
#define VIP_OBS_PROF_CONFIG_HH

#include <cstdint>
#include <string>

namespace vip
{

/**
 * Where and how densely the simulator profiles itself.  A non-empty
 * output path enables the profiler; everything it measures is purely
 * observational (no scheduled events, no randomness, nothing in any
 * stateDigest()), so enabling it leaves audit digest streams
 * bit-identical — and it is deliberately excluded from checkpoint
 * identity, so a resume may toggle it freely.
 */
struct ProfConfig
{
    /** prof.json destination; empty = profiler off. */
    std::string out;

    /**
     * Wall-clock timing cadence: every Nth dispatched event is timed
     * with steady_clock and contributes a queue-occupancy sample.
     * Per-kind dispatch *counts* are exact regardless.  The default
     * keeps measured overhead under the 5% budget
     * (vip_bench's obs.prof_overhead_pct reports the actual figure).
     */
    std::uint64_t sampleEvery = 64;

    bool enabled() const { return !out.empty(); }
};

} // namespace vip

#endif // VIP_OBS_PROF_CONFIG_HH
