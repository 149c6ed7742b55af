/**
 * @file
 * The run's one sampler (--metrics-out, --checkpoint-on-steady): the
 * streamed metrics CSV over the StatRegistry, and steady-state
 * detection.
 *
 * Every interval boundary, the stats selected by glob are appended to
 * the metrics CSV as one flushed row, so the CSV holds every interval
 * and survives a run killed mid-way; the flight recorder points at it
 * from its crash bundle.  The CSV is the sampler's only output, and a
 * sample reads the selected stats only to write its row.
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
 * verdict latches; sim.steady.tick exports it through stats, and
 * --checkpoint-on-steady turns it into the warm-start seed snapshot.
 *
 * Snapshot-safe: the interval, selection, next boundary, sample
 * count and detector windows serialize into the "timeseries"
 * checkpoint section.  A restored run cuts its CSV back to the rows
 * before the snapshot's next boundary, stamps '# resumed-at-tick=',
 * and appends from there, so the file equals an uninterrupted run's
 * plus that one line.
 */

#ifndef VIP_OBS_TIMESERIES_HH
#define VIP_OBS_TIMESERIES_HH

#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
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
     * intervalMs lines, then the "tick_ms,<stat path>..." row).  A
     * @p resumed run keeps the file up to its first data row at or
     * after the restored next boundary, dropping the rows a killed
     * run wrote past its snapshot and a last line cut short, then
     * appends after a '# resumed-at-tick=@p now' stamp (the header is
     * written first when no column row is left).  SimFatal when the
     * file cannot be opened, or when its column row names other stats
     * than this run's selection.
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
    std::uint64_t samplesSeen() const { return _samples; }
    const std::vector<std::string> &trackedPaths() const
    {
        return _trackedPaths;
    }
    /** @} */

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
        Tolerance tol;
        std::function<double()> get;
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
    void writeCsvRow(Tick t);

    Tick _interval;
    Tick _nextBoundary;

    std::ofstream _csv;   ///< metrics CSV sink; closed without one
    std::string _csvLine; ///< row buffer, reused per sample

    std::vector<Sel> _sel;
    std::uint64_t _samples = 0; ///< interval boundaries sampled

    std::vector<Track> _tracks;
    std::vector<std::string> _trackedPaths;
    bool _steady = false;
    Tick _steadyTick = 0;
};

} // namespace vip

#endif // VIP_OBS_TIMESERIES_HH
