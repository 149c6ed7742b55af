/**
 * @file
 * Per-frame latency decomposition.
 *
 * Components feed a LatencyCollector as frames move through the chain:
 * each IP stage records queue-wait / compute / blocked / total per
 * frame, the flow runtime records end-to-end and transit latency, and
 * the SA / DRAM models record transfer and burst service times.
 * Samples land in log-bucketed histograms (HdrHistogram-style
 * log-linear buckets, <= 6.25% relative error) so p50/p95/p99 come out
 * in O(buckets) with O(1) memory per stage.
 *
 * The collector is purely observational — it never schedules events or
 * perturbs digests — so it is always attached.
 */

#ifndef VIP_OBS_LATENCY_HH
#define VIP_OBS_LATENCY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace vip
{

class StateIO;

/**
 * Log-linear histogram over non-negative tick values.  Values below
 * 2^kSubBits are exact; above that, each power-of-two range is split
 * into 2^kSubBits linear sub-buckets, bounding relative error by
 * 2^-kSubBits.
 */
class LogHistogram
{
  public:
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSubBuckets = 1u << kSubBits;

    void sample(Tick v);

    std::uint64_t count() const { return _count; }
    Tick min() const { return _count ? _min : 0; }
    Tick max() const { return _max; }
    double mean() const;
    /** Value at percentile @p p in [0, 100]. */
    Tick percentile(double p) const;

    /** Checkpoint/restore. */
    void io(StateIO &io);

  private:
    static std::size_t bucketOf(Tick v);
    static Tick bucketMid(std::size_t b);

    std::vector<std::uint64_t> _bins;
    std::uint64_t _count = 0;
    Tick _min = MaxTick;
    Tick _max = 0;
    double _sum = 0.0;
};

/** Summary of one histogram, in milliseconds. */
struct LatencyBreakdown
{
    std::uint64_t count = 0;
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;
};

/** One chain stage's wait/compute/blocked/total decomposition. */
struct StageLatency
{
    std::string stage;
    LatencyBreakdown wait;    ///< announce -> first unit start
    LatencyBreakdown compute; ///< nominal busy time of all units
    LatencyBreakdown blocked; ///< total - wait - compute (HOL, input
                              ///< starvation, SA/DRAM round-trips,
                              ///< retries, context switches)
    LatencyBreakdown total;   ///< announce -> stage completion
};

/** Whole-run latency decomposition, reported in RunStats. */
struct LatencySummary
{
    LatencyBreakdown endToEnd;   ///< generation -> sink (QoS clock)
    LatencyBreakdown transit;    ///< first start -> sink
    LatencyBreakdown saTransfer; ///< per-transfer SA link occupancy
    LatencyBreakdown dramBurst;  ///< per-burst DRAM service time
    std::vector<StageLatency> stages;
};

class StatRegistry;

class LatencyCollector
{
  public:
    void recordFrame(Tick endToEnd, Tick transit);
    void recordStage(const std::string &stage, Tick wait, Tick compute,
                     Tick blocked, Tick total);
    void recordSaTransfer(Tick duration);
    void recordDramBurst(Tick service);

    LatencySummary summarize() const;

    /**
     * Register the four run-level histograms under latency.*.  The
     * per-stage map grows lazily as frames move, so stage breakdowns
     * stay summarize()-only: their histograms have no stable address
     * at registration time.
     */
    void registerStats(StatRegistry &registry) const;

    /** Checkpoint/restore (stage map re-grown on load). */
    void io(StateIO &io);

  private:
    struct StageHists
    {
        LogHistogram wait, compute, blocked, total;
    };

    LogHistogram _endToEnd, _transit, _sa, _dram;
    std::map<std::string, StageHists> _stages;
};

} // namespace vip

#endif // VIP_OBS_LATENCY_HH
