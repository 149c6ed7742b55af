/**
 * @file
 * Time-series sampler configuration (--ts, --ts-out, --metrics-out,
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
#include <vector>

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
 * Configures the run's one sampler: stats matching @ref glob are read
 * from the StatRegistry every @ref intervalMs simulated ms into
 * bounded per-stat ring buffers with stride-doubling decimation, each
 * sample is optionally streamed as a row of the metrics CSV
 * (@ref metricsOut), and a steady-state detector runs a sliding-window
 * relative-spread test over the @ref steadyStats series.
 *
 * Everything here is purely observational: the sampler reads from
 * the event loop's pre-service hook (no scheduled events, no
 * randomness, nothing in any stateDigest()), so arming it leaves
 * audit digest streams bit-identical.  Like --prof it is excluded
 * from checkpoint *identity*; arming and the interval, however, must
 * match across a save/restore pair (the rows resume from the
 * snapshot).
 */
struct TsConfig
{
    /** --ts, --ts-out or --checkpoint-on-steady given. */
    bool armed = false;

    /**
     * Stat-selection glob(s) over StatRegistry paths; '*' matches any
     * run of characters, ',' separates alternatives
     * ("flow.*,sim.eventq.live").
     */
    std::string glob = kDefaultTsGlob;

    /** series.json destination; empty = in-memory only. */
    std::string out;

    /**
     * --metrics-out: stream every sample (before decimation) to this
     * CSV, one flushed row per interval, so a killed run keeps its
     * series.  Arms the sampler on its own; empty = no CSV.
     */
    std::string metricsOut;

    /** Sampling interval in simulated ms (--metrics-interval-ms). */
    double intervalMs = 1.0;

    /**
     * Series the steady-state detector watches (globs).  Stats with
     * Tolerance::Exact that rise monotonically over the detector
     * window are treated as counters and judged on their cumulative
     * mean rate (value / elapsed time, which converges once the boot
     * transient has been amortized and is immune to the frame-count
     * quantization a short windowed rate suffers); everything else is
     * judged on its raw value.
     */
    std::vector<std::string> steadyStats{"flow.*.completed",
                                         "sim.eventq.live"};

    /**
     * Relative-spread ceiling: a tracked series is steady when
     * (max - min) <= threshold% of |mean| over the sliding window
     * (counters additionally need a positive mean rate).  The run is
     * steady at the first detector step where every tracked series
     * passes at once.  The defaults detect W4 on all five paper
     * configurations between ~150 and ~270 simulated ms.
     */
    double steadyThresholdPct = 50.0;

    /** Sliding-window length, in detector samples. */
    std::uint32_t steadyWindow = 16;

    /** Detector cadence: one detector sample per N series samples. */
    std::uint32_t steadyEvery = 4;

    /** Simulated ms before the detector starts watching at all. */
    double steadyWarmupMs = 50.0;

    /**
     * --checkpoint-on-steady: when non-empty, detection arms a
     * one-shot checkpoint written to this path at the first quiescent
     * point at or after the detected steady tick — the warm-start
     * seed snapshot for fanned-out sweeps.
     */
    std::string checkpointOnSteady;

    bool enabled() const { return armed || !metricsOut.empty(); }
};

} // namespace vip

#endif // VIP_OBS_TS_CONFIG_HH
