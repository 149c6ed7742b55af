/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue owns simulated time.  Components schedule callbacks at
 * absolute ticks; the queue services them in (tick, priority, insertion
 * order) order, which makes simulations fully deterministic.
 */

#ifndef VIP_SIM_EVENT_QUEUE_HH
#define VIP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/audit.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace vip
{

/** Scheduling priority; lower value runs first within a tick. */
enum class EventPriority : int
{
    ClockTick = -10,   ///< clock/vsync edges fire before normal work
    Default = 0,
    Stats = 10,        ///< sampling events observe post-update state
    Audit = 20,        ///< invariant audits see fully settled state
    Teardown = 100,
};

/** Handle used to cancel a scheduled event: its never-reused sequence
 *  number (from 1, so no id is 0) above its callback-pool slot in the
 *  low EventQueue::kSlotBits. */
using EventId = std::uint64_t;
constexpr EventId InvalidEventId = 0;

/**
 * A move-only `void()` callable stored entirely inline.
 *
 * Event captures are small (a `this` pointer, a few ids, at most one
 * std::function or shared_ptr continuation), so each lives in a fixed
 * 56-byte buffer: scheduling never allocates, and a capture that does
 * not fit is a compile error rather than a silent heap path.
 */
class EventCallback
{
  public:
    static constexpr std::size_t kCapacity = 56;

    /** Empty; the zeroed buffer keeps moving an empty callback (as in
     *  a MemRequest without a completion) clear of uninitialized
     *  reads in the compiler's eyes. */
    EventCallback() noexcept : _buf{} {}

    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, EventCallback>>>
    EventCallback(F &&f) // implicit, like std::function
    {
        static_assert(sizeof(Fn) <= kCapacity &&
                          alignof(Fn) <= alignof(void *),
                      "event callback capture exceeds the 56-byte "
                      "inline buffer");
        static_assert(std::is_nothrow_move_constructible_v<Fn>);
        ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(f));
        _ops = &kOps<Fn>;
    }

    EventCallback(EventCallback &&o) noexcept { take(o); }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        reset();
        take(o);
        return *this;
    }

    ~EventCallback() { reset(); }

    void operator()() { _ops->invoke(_buf); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src); ///< null: memcpy will do
        void (*destroy)(void *);                ///< null: trivial
    };

    template <typename Fn>
    static constexpr Ops kOps{
        [](void *p) { (*static_cast<Fn *>(p))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void *dst, void *src) {
                  ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                  static_cast<Fn *>(src)->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void *p) { static_cast<Fn *>(p)->~Fn(); }};

    void
    take(EventCallback &o) noexcept
    {
        if ((_ops = std::exchange(o._ops, nullptr))) {
            if (_ops->relocate)
                _ops->relocate(_buf, o._buf);
            else
                std::memcpy(_buf, o._buf, kCapacity);
        }
    }

    void
    reset() noexcept
    {
        if (_ops && _ops->destroy)
            _ops->destroy(_buf);
        _ops = nullptr;
    }

    alignas(void *) unsigned char _buf[kCapacity];
    const Ops *_ops = nullptr;
};

class StateIO;
class Profiler;

/**
 * A deterministic discrete-event queue.
 *
 * Pending callbacks live in a vector-backed slot pool; a binary heap
 * of trivially copyable 24-byte keys orders them.  Each slot records
 * where its key sits in the heap, so deschedule() removes the key at
 * once: the heap holds exactly the pending events, never tombstones.
 */
class EventQueue : public Auditable
{
  public:
    using Callback = EventCallback;
    /** Observer invoked before each serviced event (checkpointing);
     *  receives the tick the next event will run at. */
    using PreServiceHook = std::function<void(Tick)>;

    /** Low id bits naming the pool slot (caps pending events). */
    static constexpr unsigned kSlotBits = 24;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * @p kind is an optional profiling tag: a string *literal* (the
     * profiler compares pointers on the hot path and merges aliases
     * by name at report time) naming the event's kind, ideally from
     * kProfKindCatalog.  Untagged events profile as "other".  Kinds
     * are purely observational — they enter no digest or snapshot.
     *
     * @return an id usable with deschedule().
     */
    EventId schedule(Tick when, Callback &&cb,
                     EventPriority prio = EventPriority::Default,
                     const char *kind = nullptr);

    /** Schedule @p cb to run @p delta ticks from now. */
    EventId
    scheduleIn(Tick delta, Callback &&cb,
               EventPriority prio = EventPriority::Default,
               const char *kind = nullptr)
    {
        return schedule(_curTick + delta, std::move(cb), prio, kind);
    }

    /** Cancel a scheduled event in O(log n).  Harmless once it ran or
     *  was cancelled: a stale id never matches its slot's occupant. */
    void
    deschedule(EventId id)
    {
        if (isLive(id))
            release(slotOf(id)); // destroys the callback
    }

    /** Number of scheduled, not-yet-run, not-cancelled events. */
    std::size_t pending() const { return _heap.size(); }

    /** True when no live events remain. */
    bool empty() const { return _heap.empty(); }

    /**
     * Service the single next live event.
     * @return false when the queue is empty.
     */
    bool serviceOne();

    /**
     * Run until the queue drains or simulated time reaches @p limit.
     * Events scheduled exactly at @p limit do run.  A @p hook is
     * called before every serviced event; it must be purely
     * observational — checkpointing uses it to detect quiescent
     * points without perturbing the run.
     * @return the final current tick.
     */
    Tick runUntil(Tick limit, const PreServiceHook &hook = {});

    /** Run until the queue drains completely. */
    Tick run() { return runUntil(MaxTick); }

    /** @{ Checkpoint/restore (quiescent-point snapshots).
     *
     * io() carries the kernel counters and the sorted live-id set; on
     * load it remembers the ids.  Each component then re-arms its own
     * pending events (StateIO::event, which saves the id and
     * scheduledWhen() and calls restoreEvent() on load), and
     * verifyRestore() checks that the re-armed set matches the
     * snapshot exactly.
     */
    void io(StateIO &io);

    /** True when @p id is scheduled and not yet run or cancelled. */
    bool
    isLive(EventId id) const
    {
        const std::uint32_t s = slotOf(id);
        return s < _slots.size() && _slots[s].seq == (id >> kSlotBits);
    }

    /** The tick a live event will run at (save-time lookup). */
    Tick scheduledWhen(EventId id) const;

    /**
     * Re-create a pending event with its original id, in the pool
     * slot that id names.  Only valid between io() loading and
     * verifyRestore(); ids must come from the snapshot (already
     * issued, i.e. below the restored sequence counter).
     */
    void restoreEvent(EventId id, Tick when, Callback cb,
                      EventPriority prio = EventPriority::Default,
                      const char *kind = nullptr);

    /** SimFatal unless re-armed events match the snapshot's id set. */
    void verifyRestore() const;
    /** @} */

    /** Total number of events ever serviced (for kernel stats). */
    std::uint64_t servicedEvents() const { return _serviced; }

    /**
     * Ask the current runUntil() to return between events, leaving
     * simulated time at the last serviced tick instead of
     * fast-forwarding to the limit.  One-shot: consumed when the run
     * loop returns.  Used for graceful SIGINT/SIGTERM handling — a
     * pre-service hook that has flushed its final checkpoint calls
     * this to end the run early.
     */
    void requestStop() { _stopRequested = true; }
    bool stopRequested() const { return _stopRequested; }

    /**
     * Same-tick livelock guard: cap on events serviced without
     * simulated time advancing.  Zero-latency callback cycles
     * (signal ping-pong, retry storms) never advance the clock, so
     * the time-limit backstop cannot catch them; crossing this cap
     * aborts with SimPanic instead of spinning forever.  The default
     * is far above anything a legitimate burst produces.
     */
    void setMaxEventsPerTick(std::uint64_t cap) { _maxPerTick = cap; }
    std::uint64_t maxEventsPerTick() const { return _maxPerTick; }

    /** Heap keys; always equal to pending() (no tombstones). */
    std::size_t heapSize() const { return _heap.size(); }
    /** Always 0: cancellation never leaves dead entries to compact.
     *  Kept only because vip_bench reports it as a layer row. */
    std::uint64_t compactions() const { return 0; }

    /**
     * Attach (or detach, with nullptr) the hot-path self-profiler.
     * Purely observational: the profiler sees every dispatch's kind
     * tag and queue occupancy but cannot perturb the event stream,
     * so digests stay bit-identical with profiling on (see
     * obs/profiler.hh).
     */
    void setProfiler(Profiler *p) { _prof = p; }
    Profiler *profiler() const { return _prof; }

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

  private:
    /** Heap key; (when, order) is a strict total order. */
    struct Key
    {
        Tick when;
        std::uint64_t order; ///< (prio + 128) << 56 | seq
        std::uint32_t slot;
    };

    struct Slot
    {
        std::uint64_t seq = kFreeSeq; ///< the occupant's, or kFreeSeq
        std::uint32_t heapIdx = 0;    ///< where the occupant's key is
        const char *kind = nullptr;   ///< profiling tag, see schedule()
        Callback cb;
    };

    /** Matches no id (sequence numbers stay below 2^(64-kSlotBits)). */
    static constexpr std::uint64_t kFreeSeq = ~std::uint64_t(0);

    static std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id & ((1u << kSlotBits) - 1));
    }

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.order < b.order;
    }

    /** Occupy free slot @p s and push its key; returns the id. */
    EventId insert(std::uint64_t seq, std::uint32_t s, Tick when,
                   EventPriority prio, const char *kind, Callback &&cb);
    /** Remove live slot @p s's key and free the slot; returns its
     *  callback, so the capture dies once the pool is consistent. */
    Callback release(std::uint32_t s);
    /** Pending ids, sorted (snapshot save and restore check). */
    std::vector<EventId> liveIds() const;

    /** @{ heap maintenance; every key move updates its slot's index */
    void place(std::size_t i, const Key &k);
    void siftUp(std::size_t i, Key k);
    void removeKey(std::size_t i);
    /** @} */

    Tick _curTick = 0;
    std::uint64_t _nextSeq = 1; ///< never reused; digested as nextId
    std::uint64_t _serviced = 0;
    std::uint64_t _maxPerTick = 5'000'000;
    std::uint64_t _tickServiced = 0;
    /** Transient graceful-stop request; never serialized. */
    bool _stopRequested = false;
    /** Nullable hot-path observer; never serialized. */
    Profiler *_prof = nullptr;
    std::vector<Key> _heap;           ///< binary min-heap, one per event
    std::vector<Slot> _slots;         ///< callback pool
    std::vector<std::uint32_t> _free; ///< free slots, LIFO
    /** Sorted live ids from the snapshot (verifyRestore()). */
    std::vector<EventId> _restoreIds;
};

} // namespace vip

#endif // VIP_SIM_EVENT_QUEUE_HH
