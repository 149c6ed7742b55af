/**
 * @file
 * Profiler: the simulator's hot-path self-profiler (--prof).
 *
 * Attributes wall time to the event loop itself: which event kinds
 * dominate dispatch counts and wall cost, how the EventQueue's
 * occupancy (live events) evolves over simulated time, and how the
 * run's simulated-seconds-per-wall-second breaks down.  This is the
 * cost-attribution substrate the event-loop optimization work
 * (ROADMAP item 1) is aimed with.
 *
 * Digest-neutrality contract (same as the tracer): the profiler is
 * attached to the EventQueue through a nullable observer pointer, it
 * never schedules or cancels events, never consumes randomness, and
 * none of its state enters any stateDigest().  A profiled run's audit
 * digest stream is bit-identical to an unprofiled one.
 *
 * Overhead model: every dispatch pays one pointer-identity hash-table
 * probe and a counter increment (event kinds are string literals, so
 * identity compares are pointer compares; slots that alias the same
 * name across translation units are merged by strcmp at report time).
 * steady_clock is only read on every sampleEvery-th event, and the
 * queue-occupancy timeline decimates itself (stride doubling) once
 * its bounded buffer fills, so memory and timing cost stay O(1) per
 * event and total overhead stays under the 5% budget that
 * vip_bench's obs.prof_overhead_pct measures.
 */

#ifndef VIP_OBS_PROFILER_HH
#define VIP_OBS_PROFILER_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/prof_config.hh"
#include "sim/types.hh"

namespace vip
{

/**
 * The catalog of event-kind tags used by the component schedule()
 * sites.  Fixed so the prof.* stat namespace is stable across runs
 * and configurations; untagged events (kind == nullptr) fold into
 * "other".
 */
extern const char *const kProfKindCatalog[];
extern const std::size_t kProfKindCatalogSize;

/** Merged per-kind dispatch accounting (by name, report order). */
struct ProfKindRow
{
    std::string kind;
    std::uint64_t count = 0;   ///< all dispatches
    std::uint64_t sampled = 0; ///< dispatches that were wall-timed
    std::uint64_t wallNs = 0;  ///< summed wall ns over sampled ones
    /** count-scaled estimate of this kind's total callback wall ns. */
    double estTotalNs() const
    {
        return sampled == 0
                   ? 0.0
                   : static_cast<double>(wallNs) *
                         (static_cast<double>(count) /
                          static_cast<double>(sampled));
    }
};

/** One queue-occupancy timeline sample (taken on timed dispatches). */
struct ProfQueueSample
{
    Tick tick = 0;
    std::uint32_t pending = 0; ///< live events
};

class Profiler
{
  public:
    explicit Profiler(const ProfConfig &cfg);

    /** @{ EventQueue hooks (hot path).
     *
     * beginDispatch() accounts the event and returns true when this
     * dispatch is wall-timed; the queue then calls endDispatch()
     * right after the callback returns.  Both are observational. */
    bool
    beginDispatch(const char *kind, Tick now, std::size_t pending,
                  std::size_t heapSize)
    {
        KindSlot &s = slotFor(kind);
        ++s.count;
        if (++_sinceSample < _sampleEvery)
            return false;
        _sinceSample = 0;
        ++s.sampled;
        _curSlot = &s;
        sampleQueue(now, pending, heapSize);
        _t0 = std::chrono::steady_clock::now();
        return true;
    }

    void
    endDispatch()
    {
        const auto t1 = std::chrono::steady_clock::now();
        _curSlot->wallNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - _t0)
                .count());
    }
    /** @} */

    /** @{ run-level bookkeeping (set by Simulation, not the queue) */
    void setRunWallMs(double ms) { _runWallMs = ms; }
    void noteAllocCursor(std::uint64_t c) { _allocCursor = c; }
    /** @} */

    std::uint64_t dispatches() const;
    std::uint64_t sampledDispatches() const;
    std::uint64_t sampleEvery() const { return _sampleEvery; }
    double runWallMs() const { return _runWallMs; }

    /** Per-kind rows merged by name, sorted by estimated wall cost
     *  (descending); stable and deterministic given the counters. */
    std::vector<ProfKindRow> rows() const;

    /** Exact dispatch count for one catalog kind (stat getters). */
    double countFor(const char *kind) const;
    /** Summed sampled wall ns for one catalog kind (stat getters). */
    double wallNsFor(const char *kind) const;

    /** @{ queue-occupancy timeline */
    const std::vector<ProfQueueSample> &timeline() const
    {
        return _timeline;
    }
    /** Events between consecutive timeline samples. */
    std::uint64_t timelineStride() const
    {
        return _sampleEvery * _timelineDecimation;
    }
    std::uint32_t maxPending() const { return _maxPending; }
    std::uint32_t maxHeap() const { return _maxHeap; }
    /** @} */

    /**
     * Write the prof.json document vip_prof consumes: run context,
     * sim-vs-wall figures, per-kind table, queue-pressure timeline
     * and allocator/heap-churn counters.
     */
    void
    writeJson(std::ostream &os, double simMs,
              const std::vector<std::pair<std::string, std::string>>
                  &runMeta) const;

    static constexpr int kSchemaVersion = 1;

  private:
    struct KindSlot
    {
        const char *kind = nullptr;
        std::uint64_t count = 0;
        std::uint64_t sampled = 0;
        std::uint64_t wallNs = 0;
    };

    /** Pointer-identity open-addressing lookup (hot path). */
    KindSlot &
    slotFor(const char *kind)
    {
        if (!kind)
            kind = kOtherKind;
        std::size_t h =
            (reinterpret_cast<std::uintptr_t>(kind) >> 3) &
            (kSlots - 1);
        while (true) {
            KindSlot &s = _table[h];
            if (s.kind == kind)
                return s;
            if (!s.kind) {
                s.kind = kind;
                _used.push_back(h);
                return s;
            }
            h = (h + 1) & (kSlots - 1);
        }
    }

    /** Occupancy-timeline sample on a timed dispatch.  Inline (like
     *  the dispatch hooks) so the event queue's translation unit
     *  needs no out-of-line profiler symbols — vip_sim must not
     *  depend on the vip_obs archive. */
    void
    sampleQueue(Tick now, std::size_t pending, std::size_t heapSize)
    {
        const auto p = static_cast<std::uint32_t>(pending);
        const auto h = static_cast<std::uint32_t>(heapSize);
        _maxPending = std::max(_maxPending, p);
        _maxHeap = std::max(_maxHeap, h);
        if (_timelineSkip > 0) {
            --_timelineSkip;
            return;
        }
        if (_timeline.size() >= kTimelineCap) {
            // Keep every 2nd sample and double the stride: the
            // timeline stays bounded while spanning the whole run.
            std::size_t kept = 0;
            for (std::size_t i = 0; i < _timeline.size(); i += 2)
                _timeline[kept++] = _timeline[i];
            _timeline.resize(kept);
            _timelineDecimation *= 2;
        }
        _timeline.push_back(ProfQueueSample{now, p});
        _timelineSkip = _timelineDecimation - 1;
    }

    /** One address across all translation units (C++17 inline). */
    static constexpr const char kOtherKind[] = "other";
    static constexpr std::size_t kSlots = 128;
    static constexpr std::size_t kTimelineCap = 2048;

    std::uint64_t _sampleEvery;
    std::uint64_t _sinceSample = 0;
    KindSlot *_curSlot = nullptr;
    std::chrono::steady_clock::time_point _t0{};

    std::array<KindSlot, kSlots> _table{};
    std::vector<std::size_t> _used; ///< occupied table indices

    /** Bounded occupancy timeline; decimates (keep-every-2nd, double
     *  the stride) whenever it fills, so long runs keep a coarse but
     *  complete picture. */
    std::vector<ProfQueueSample> _timeline;
    std::uint64_t _timelineDecimation = 1;
    std::uint64_t _timelineSkip = 0; ///< samples until next keep
    std::uint32_t _maxPending = 0;
    std::uint32_t _maxHeap = 0;

    double _runWallMs = 0.0;
    std::uint64_t _allocCursor = 0;
};

} // namespace vip

#endif // VIP_OBS_PROFILER_HH
