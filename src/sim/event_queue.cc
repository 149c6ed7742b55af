#include "sim/event_queue.hh"

#include <algorithm>

#include "obs/profiler.hh"
#include "sim/state_io.hh"

namespace vip
{

void
EventQueue::growPool()
{
    vip_assert(_slots.size() < (std::size_t(1) << kSlotBits),
               "event pool full: ", _slots.size(), " pending");
    _slots.emplace_back();
    _free.push_back(static_cast<std::uint32_t>(_slots.size() - 1));
}

EventId
EventQueue::insert(std::uint64_t seq, std::uint32_t s, Tick when,
                   EventPriority prio, const char *kind)
{
    Slot &slot = _slots[s];
    slot.seq = seq;
    slot.kind = kind;
    const auto p = static_cast<std::uint64_t>(int(prio) + 128);
    const Key k{when, p << 56 | seq, s};
    if (_hole) {
        // The running event's first push takes over its root: one
        // sift-down stands for that event's pop and this push.
        _hole = false;
        siftDown(0, k);
    } else {
        _heap.emplace_back();
        siftUp(_heap.size() - 1, k);
    }
    return seq << kSlotBits | s;
}

EventQueue::Callback
EventQueue::vacate(std::uint32_t s)
{
    _slots[s].seq = kFreeSeq;
    _free.push_back(s);
    return std::move(_slots[s].cb);
}

void
EventQueue::place(std::size_t i, const Key &k)
{
    _heap[i] = k;
    _slots[k.slot].heapIdx = static_cast<std::uint32_t>(i);
}

void
EventQueue::siftUp(std::size_t i, const Key &k)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(k, _heap[parent]))
            break;
        place(i, _heap[parent]);
        i = parent;
    }
    place(i, k);
}

void
EventQueue::siftDown(std::size_t i, const Key &k)
{
    const std::size_t n = _heap.size();
    for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && before(_heap[c + 1], _heap[c]))
            ++c;
        if (!before(_heap[c], k))
            break;
        place(i, _heap[c]);
        i = c;
    }
    place(i, k);
}

void
EventQueue::removeKey(std::size_t i)
{
    const Key last = _heap.back();
    _heap.pop_back();
    const std::size_t n = _heap.size();
    if (i == n)
        return;
    // Walk the hole down to a leaf along the earlier children, then
    // sift the old last key up from there (it usually belongs low).
    // Under a root hole (a callback running) this never reaches the
    // root: the hole's key is below every other.
    for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && before(_heap[c + 1], _heap[c]))
            ++c;
        place(i, _heap[c]);
        i = c;
    }
    siftUp(i, last);
}

void
EventQueue::closeHole()
{
    if (_hole) {
        _hole = false;
        removeKey(0);
    }
}

bool
EventQueue::serviceOne()
{
    vip_assert(!_hole, "serviceOne() from inside an event callback");
    if (_heap.empty())
        return false;
    const Key top = _heap.front();
    const char *kind = _slots[top.slot].kind;
    // Move the callback out before running it: it may schedule and
    // so grow (reallocate) the pool.  Its key stays as the root hole.
    Callback cb = vacate(top.slot);
    _hole = true;
    try {
        vip_assert(top.when >= _curTick, "time went backwards");
        if (top.when != _curTick) {
            _curTick = top.when;
            _tickServiced = 0;
        }
        if (++_tickServiced > _maxPerTick) {
            panic("event queue livelock: ", _tickServiced,
                  " events serviced at tick ", _curTick,
                  " without time advancing (", pending(),
                  " still pending)");
        }
        ++_serviced;
        if (!_prof) {
            cb();
        } else if (_prof->beginDispatch(kind, _curTick, pending(),
                                        heapSize())) {
            // Profiled dispatch: the hooks are observational (count +
            // occasional steady_clock read); the callback itself runs
            // identically, so digests cannot diverge.  The timed
            // span includes the root's removal.
            cb();
            closeHole();
            _prof->endDispatch();
        } else {
            cb();
        }
    } catch (...) {
        closeHole();
        throw;
    }
    closeHole();
    return true;
}

Tick
EventQueue::runUntil(Tick limit, const PreServiceHook &hook)
{
    while (!_heap.empty() && !_stopRequested) {
        const Tick next = _heap.front().when;
        if (next > limit)
            break;
        // The hook observes the queue between events (checkpointing):
        // it must not schedule, cancel, or mutate simulated state.
        if (hook)
            hook(next);
        if (_stopRequested)
            break;
        serviceOne();
    }
    // A stopped run keeps its true last-serviced tick: the caller is
    // abandoning the remaining simulated time, not skipping it.
    if (!_stopRequested && _curTick < limit && limit != MaxTick)
        _curTick = limit;
    _stopRequested = false;
    return _curTick;
}

Tick
EventQueue::scheduledWhen(EventId id) const
{
    vip_assert(isLive(id), "scheduledWhen() on a dead event id ", id);
    return _heap[_slots[slotOf(id)].heapIdx].when;
}

void
EventQueue::restoreEvent(EventId id, Tick when, Callback cb,
                         EventPriority prio, const char *kind)
{
    // The id and tick come from a snapshot file: a corrupt one is bad
    // input (SimFatal), not a kernel bug.
    const std::uint64_t seq = id >> kSlotBits;
    const std::uint32_t s = slotOf(id);
    if (seq == 0 || seq >= _nextSeq)
        fatal("checkpoint restore: event id ", id,
              " outside the issued range");
    if (when < _curTick)
        fatal("checkpoint restore: event ", id, " in the past: when=",
              when, " cur=", _curTick);
    // Claim exactly the slot the id names; slots added on the way
    // there join the free list.
    while (_slots.size() <= s) {
        _slots.emplace_back();
        _free.push_back(static_cast<std::uint32_t>(_slots.size() - 1));
    }
    auto it = std::find(_free.begin(), _free.end(), s);
    if (it == _free.end())
        fatal("checkpoint restore: event id ", id,
              " names an occupied slot");
    _slots[s].cb.emplace(std::move(cb));
    _free.erase(it);
    insert(seq, s, when, prio, kind);
}

void
EventQueue::auditInvariants(AuditContext &ctx) const
{
    // The heap indexes the live slots exactly: each key's slot points
    // back at it, keys are heap-ordered, and nothing else is live.
    std::size_t live = 0;
    std::size_t liveInHeap = 0;
    for (std::size_t s = 0; s < _slots.size(); ++s) {
        const Slot &slot = _slots[s];
        if (slot.seq == kFreeSeq)
            continue;
        ++live;
        liveInHeap += slot.heapIdx < _heap.size() &&
                      _heap[slot.heapIdx].slot == s;
        ctx.checkTrue("eventq.id_valid",
                      slot.seq != 0 && slot.seq < _nextSeq,
                      "live id outside issued range");
    }
    ctx.checkEq("eventq.live_in_heap", liveInHeap, live,
                "live ids without a heap entry");
    ctx.checkEq("eventq.heap_index", heapSize(), live,
                "heap keys without a live slot");
    // A root hole (an Audit-priority callback running) is no key; its
    // children may still be checked against it, the least key.
    for (std::size_t i = _hole; i < _heap.size(); ++i) {
        const Key &k = _heap[i];
        ctx.checkTrue("eventq.heap_index",
                      k.slot < _slots.size() &&
                          _slots[k.slot].heapIdx == i &&
                          (i == 0 || !before(k, _heap[(i - 1) / 2])),
                      "heap key misindexed or out of order");
    }
}

std::vector<EventId>
EventQueue::liveIds() const
{
    std::vector<EventId> ids;
    ids.reserve(pending());
    for (std::size_t i = _hole; i < _heap.size(); ++i)
        ids.push_back(_slots[_heap[i].slot].seq << kSlotBits |
                      _heap[i].slot);
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
EventQueue::io(StateIO &io)
{
    vip_assert(!_hole, "checkpointing from inside an event callback");
    vip_assert(io.saving() || _heap.empty(),
               "restoring into a non-empty event queue");
    io.tick(_curTick);
    io.u64(_nextSeq);
    io.u64(_serviced);
    io.u64(_tickServiced);
    // The live-id set, sorted: ids identify which periodic events are
    // pending and the slot each occupies.  Their (when, prio,
    // callback) are re-created by the owning components; restore is
    // verified against this exact set.
    std::vector<EventId> ids;
    if (io.saving())
        ids = liveIds();
    io.seq64(ids, "pending event ids", [&](EventId &id) { io.u64(id); });
    if (io.loading())
        _restoreIds = std::move(ids);
}

void
EventQueue::verifyRestore() const
{
    const std::vector<EventId> ids = liveIds();
    if (ids != _restoreIds) {
        fatal("checkpoint restore re-armed ", ids.size(),
              " pending events where the snapshot recorded ",
              _restoreIds.size(),
              " (or with different ids) -- a component failed to "
              "re-create its pending events");
    }
}

void
EventQueue::stateDigest(StateDigest &d) const
{
    d.add(static_cast<std::uint64_t>(_curTick));
    d.add(_nextSeq);
    d.add(_serviced);
    d.add(static_cast<std::uint64_t>(pending()));
}

} // namespace vip
