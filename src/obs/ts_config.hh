/**
 * @file
 * Time-series sampler configuration (--metrics-out, --ts=<glob>,
 * --metrics-interval-ms, --checkpoint-on-steady).
 *
 * Kept in its own tiny header (like prof_config.hh) so SocConfig can
 * embed it without pulling the time-series implementation into every
 * translation unit.
 */

#ifndef VIP_OBS_TS_CONFIG_HH
#define VIP_OBS_TS_CONFIG_HH

#include <cstdint>
#include <string>

namespace vip
{

/**
 * The default stat selection: the registry counters behind the run's
 * vital signs, compact enough for an always-on fleet heartbeat.  Per
 * IP, credits held (credits_reserved - credits_returned) and
 * time-in-state deltas (busy/stall/bp_stall); DRAM bandwidth (bytes
 * read + written) and low-power residency; SA busy time; per-core
 * active/sleep time; per-flow frames in flight (generated -
 * completed - frames_shed); and the live event count.  It covers the
 * steady-state detector's default tracked series.  --ts='*' selects
 * every registered stat instead.
 */
constexpr const char *kDefaultTsGlob =
    "flow.*.generated,flow.*.completed,flow.*.frames_shed,"
    "sim.eventq.live,"
    "ip.*.credits_reserved,ip.*.credits_returned,"
    "ip.*.busy_ms,ip.*.stall_ms,ip.*.bp_stall_ms,"
    "dram.bytes_read,dram.bytes_written,"
    "dram.powerdown_ms,dram.selfrefresh_ms,"
    "sa.busy_ms,cpu.core*.active_ms,cpu.core*.sleep_ms";

/**
 * Configures the run's one sampler: every @ref intervalMs simulated
 * ms it appends the stats matching @ref glob, read from the
 * StatRegistry, as one flushed row of the metrics CSV
 * (@ref metricsOut), and steps a steady-state detector, a
 * sliding-window relative-spread test over the series
 * TimeSeries::kSteadyStats names (its parameters are TimeSeries
 * constants too).  The sampler exists only for a consumer of its
 * samples: the CSV or the --checkpoint-on-steady seed.
 *
 * Everything here is purely observational: the sampler reads from
 * the event loop's pre-service hook (no scheduled events, no
 * randomness, nothing in any stateDigest()), so arming it leaves
 * audit digest streams bit-identical.  Like --prof it is excluded
 * from checkpoint *identity*; arming, the interval and the
 * selection, however, must match across a save/restore pair (the
 * sample count and detector state resume from the snapshot).
 */
struct TsConfig
{
    /**
     * Stat-selection glob(s) over StatRegistry paths, the metrics
     * CSV's columns; '*' matches any run of characters, ',' separates
     * alternatives ("flow.*,sim.eventq.live").
     */
    std::string glob = kDefaultTsGlob;

    /**
     * --metrics-out: stream every sample to this CSV, one flushed row
     * per interval, so a killed run keeps its series.  Empty = no CSV.
     */
    std::string metricsOut;

    /** Sampling interval in simulated ms (--metrics-interval-ms). */
    double intervalMs = 1.0;

    /**
     * --checkpoint-on-steady: when non-empty, detection arms a
     * one-shot checkpoint written to this path at the first quiescent
     * point at or after the detected steady tick — the warm-start
     * seed snapshot for fanned-out sweeps.
     */
    std::string checkpointOnSteady;

    bool
    enabled() const
    {
        return !metricsOut.empty() || !checkpointOnSteady.empty();
    }
};

} // namespace vip

#endif // VIP_OBS_TS_CONFIG_HH
