/**
 * @file
 * The run's one sampler (--ts, --metrics-out): windowed time series
 * over the StatRegistry, the streamed metrics CSV, and steady-state
 * detection.
 *
 * Stats selected by glob are sampled every interval into one bounded
 * row ring covering the whole run — at capacity every second row is
 * dropped and the keep-stride doubles (the profiler's queue-timeline
 * trick), so memory is O(capacity) regardless of run length while the
 * series still spans start to finish.  Derived views (rates from
 * counters, EWMA, windowed min/max) are computed at dump time from
 * the stored rows, never during the run.  With a metrics CSV armed,
 * every sample is also appended to it as one flushed row *before*
 * decimation, so the CSV holds every interval and survives a run
 * killed mid-way; the flight recorder points at it from its crash
 * bundle.
 *
 * Digest neutrality is by construction: sampling happens from the
 * event loop's pre-service hook, so the sampler schedules no events,
 * consumes no randomness and contributes nothing to any stateDigest()
 * — an armed run's digest stream is bit-identical to a bare one.
 *
 * The steady-state detector answers "has this run left the boot
 * transient yet?": every kSteadyEvery-th sample it pushes each
 * tracked series' value into a sliding window and declares steady at
 * the first step where every window's relative spread
 * ((max - min) / |mean|) is under the threshold — counters (Exact
 * tolerance, monotone over the window) are judged on their cumulative
 * mean rate (value / elapsed time, immune to the frame-count
 * quantization a short windowed rate suffers), which must also be
 * positive, so an idle all-zero counter can never vote steady.  The
 * verdict latches; sim.steady.tick exports it through stats and
 * series.json, and --checkpoint-on-steady turns it into the
 * warm-start seed snapshot.
 *
 * Snapshot-safe: the interval, rows, decimation state and detector
 * windows serialize into the "timeseries" checkpoint section, so a
 * restored run's series.json is byte-identical to an uninterrupted
 * run's — no duplicated, missing or rewound rows — and its CSV
 * continues in append mode after a '# resumed-at-tick=' stamp.
 */

#ifndef VIP_OBS_TIMESERIES_HH
#define VIP_OBS_TIMESERIES_HH

#include <cstdint>
#include <deque>
#include <fstream>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/stat_registry.hh"
#include "obs/ts_config.hh"
#include "sim/types.hh"

namespace vip
{

class StateIO;

class TimeSeries
{
  public:
    /** Version stamped as "schemaVersion" into every series.json. */
    static constexpr int kSchemaVersion = 1;

    /** Row-ring capacity; at capacity the keep-stride doubles. */
    static constexpr std::size_t kRowCap = 512;

    /** First line of every metrics CSV; bumped when its columns
     *  change meaning. */
    static constexpr const char *kCsvTag = "# vip-metrics v2";

    /** @{ Steady-state detector parameters (the algorithm is in the
     *  file comment): the tracked series (globs); the spread ceiling,
     *  in % of |mean|; the sliding window, in detector samples; series
     *  samples per detector sample; simulated ms before the first.
     *  They detect W4 on all five paper configurations at ~150-270
     *  simulated ms. */
    static constexpr const char *kSteadyStats[] = {"flow.*.completed",
                                                   "sim.eventq.live"};
    static constexpr double kSteadyThresholdPct = 50.0;
    static constexpr std::size_t kSteadyWindow = 16;
    static constexpr std::uint64_t kSteadyEvery = 4;
    static constexpr double kSteadyWarmupMs = 50.0;
    /** @} */

    /**
     * Select every stat of @p reg matching cfg.glob (must select at
     * least one; an empty selection is a configuration error) and
     * resolve the detector's tracked set from kSteadyStats.  The
     * sampling cadence is cfg.intervalMs.
     */
    TimeSeries(const TsConfig &cfg, const StatRegistry &reg);

    /**
     * Stream every sample from now on to the metrics CSV at @p path,
     * one flushed row per interval boundary.  A fresh run truncates
     * the file and writes the header ('#' tag, provenance and
     * intervalMs lines, then the "tick_ms,<stat path>..." row); a
     * @p resumed run appends after a '# resumed-at-tick=@p now'
     * stamp, so the rows written before its snapshot stay in place
     * (the header is written first only if the file is empty).
     * SimFatal when the file cannot be opened.
     */
    void streamCsv(const std::string &path, bool resumed, Tick now);

    /**
     * Pre-service hook entry: called with the tick of the event about
     * to be serviced; emits one sample per interval boundary passed
     * since the last call.  The fast path (no boundary crossed) is a
     * single comparison.
     */
    void
    observe(Tick next)
    {
        if (next < _nextBoundary)
            return;
        catchUp(next);
    }

    /** Flush boundaries up to the final tick (end of run). */
    void finish(Tick end) { catchUp(end); }

    /** @{ steady-state verdict (latched). */
    bool steadyDetected() const { return _steady; }
    Tick steadyTick() const { return _steadyTick; }
    /** Detection tick in ms, or -1 while undetected (the stats
     *  representation). */
    double
    steadyTickMs() const
    {
        return _steady ? toMs(_steadyTick) : -1.0;
    }
    /** @} */

    /** @{ introspection (tests, stats export). */
    std::size_t selected() const { return _sel.size(); }
    std::size_t rows() const { return _rows.size(); }
    std::uint64_t samplesSeen() const { return _samples; }
    std::uint64_t stride() const { return _stride; }
    const std::vector<std::string> &trackedPaths() const
    {
        return _trackedPaths;
    }
    /** @} */

    /**
     * Write the self-describing series.json: schemaVersion, build
     * provenance, run context (@p meta), the decimated tick axis,
     * and per-stat raw values plus derived series (rate for
     * counters, EWMA, windowed min/max).  Contains no wall-clock
     * content, so two identical runs produce identical bytes.
     */
    void writeJson(
        std::ostream &os,
        const std::vector<std::pair<std::string, std::string>> &meta
        = {}) const;

    /** Checkpoint/restore ("timeseries" snapshot section). */
    void io(StateIO &io);

    /**
     * Glob match: '*' matches any run of characters, '?' one
     * character, ',' separates alternatives.  Exposed for tests.
     */
    static bool globMatch(const std::string &pat,
                          const std::string &path);

  private:
    /** One selected stat: identity + how to read it, copied from the
     *  registry at construction. */
    struct Sel
    {
        std::string path;
        std::string unit;
        Tolerance tol;
        std::function<double()> get;
    };

    /** One stored sample row: tick + every selected stat's value. */
    struct Row
    {
        Tick tick;
        std::vector<double> vals;
    };

    /** Sliding-window state for one detector-tracked series. */
    struct Track
    {
        std::size_t sel;           ///< index into _sel
        std::deque<double> vals;   ///< last window+1 raw samples
        std::deque<double> metric; ///< last window judged values
    };

    void catchUp(Tick next);
    void sampleAt(Tick t);
    void detectStep(Tick t);
    void writeCsvRow(const Row &r);

    TsConfig _cfg;
    Tick _interval;
    Tick _nextBoundary;

    std::ofstream _csv;   ///< metrics CSV sink; closed when unarmed
    std::string _csvLine; ///< row buffer, reused per sample

    std::vector<Sel> _sel;
    std::vector<Row> _rows;
    std::uint64_t _samples = 0; ///< boundaries sampled (pre-decimation)
    std::uint64_t _stride = 1;  ///< keep every _stride-th sample
    std::uint64_t _skip = 0;    ///< samples to drop before next keep

    std::vector<Track> _tracks;
    std::vector<std::string> _trackedPaths;
    bool _steady = false;
    Tick _steadyTick = 0;
};

} // namespace vip

#endif // VIP_OBS_TIMESERIES_HH
