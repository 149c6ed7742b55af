#include "sim/event_queue.hh"

#include <algorithm>

#include "obs/profiler.hh"
#include "sim/snapshot.hh"

namespace vip
{

EventId
EventQueue::schedule(Tick when, Callback &&cb, EventPriority prio,
                     const char *kind)
{
    vip_assert(when >= _curTick, "scheduling in the past: when=", when,
               " cur=", _curTick);
    vip_assert(_nextSeq >> (64 - kSlotBits) == 0,
               "event sequence numbers exhausted");
    if (_free.empty()) {
        vip_assert(_slots.size() < (std::size_t(1) << kSlotBits),
                   "event pool full: ", _slots.size(), " pending");
        _slots.emplace_back();
        _free.push_back(static_cast<std::uint32_t>(_slots.size() - 1));
    }
    const std::uint32_t s = _free.back();
    _free.pop_back();
    return insert(_nextSeq++, s, when, prio, kind, std::move(cb));
}

EventId
EventQueue::insert(std::uint64_t seq, std::uint32_t s, Tick when,
                   EventPriority prio, const char *kind, Callback &&cb)
{
    Slot &slot = _slots[s];
    slot.seq = seq;
    slot.kind = kind;
    slot.cb = std::move(cb);
    const auto p = static_cast<std::uint64_t>(int(prio) + 128);
    _heap.emplace_back();
    siftUp(_heap.size() - 1, Key{when, p << 56 | seq, s});
    return seq << kSlotBits | s;
}

EventQueue::Callback
EventQueue::release(std::uint32_t s)
{
    removeKey(_slots[s].heapIdx);
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
EventQueue::siftUp(std::size_t i, Key k)
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
EventQueue::removeKey(std::size_t i)
{
    const Key last = _heap.back();
    _heap.pop_back();
    const std::size_t n = _heap.size();
    if (i == n)
        return;
    // Walk the hole down to a leaf along the earlier children, then
    // sift the old last key up from there (it usually belongs low).
    for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && before(_heap[c + 1], _heap[c]))
            ++c;
        place(i, _heap[c]);
        i = c;
    }
    siftUp(i, last);
}

bool
EventQueue::serviceOne()
{
    if (_heap.empty())
        return false;
    const Key top = _heap.front();
    const char *kind = _slots[top.slot].kind;
    // Move the callback out before running it: it may schedule and
    // so grow (reallocate) the pool.
    Callback cb = release(top.slot);
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
        return true;
    }
    // Profiled dispatch: the hooks are observational (count +
    // occasional steady_clock read); the callback itself runs
    // identically, so digests cannot diverge.
    if (_prof->beginDispatch(kind, _curTick, pending(), _heap.size())) {
        cb();
        _prof->endDispatch();
    } else {
        cb();
    }
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
    const std::uint64_t seq = id >> kSlotBits;
    const std::uint32_t s = slotOf(id);
    vip_assert(seq != 0 && seq < _nextSeq,
               "restoreEvent id ", id, " outside issued range");
    vip_assert(when >= _curTick, "restoreEvent in the past: when=",
               when, " cur=", _curTick);
    // Claim exactly the slot the id names; slots added on the way
    // there join the free list.
    while (_slots.size() <= s) {
        _slots.emplace_back();
        _free.push_back(static_cast<std::uint32_t>(_slots.size() - 1));
    }
    auto it = std::find(_free.begin(), _free.end(), s);
    vip_assert(it != _free.end(), "restoreEvent id ", id,
               " names an occupied slot");
    _free.erase(it);
    insert(seq, s, when, prio, kind, std::move(cb));
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
    ctx.checkEq("eventq.heap_index", _heap.size(), live,
                "heap keys without a live slot");
    for (std::size_t i = 0; i < _heap.size(); ++i) {
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
    ids.reserve(_heap.size());
    for (const Key &k : _heap)
        ids.push_back(_slots[k.slot].seq << kSlotBits | k.slot);
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
EventQueue::saveState(SnapshotWriter &w) const
{
    w.tick(_curTick);
    w.u64(_nextSeq);
    w.u64(_serviced);
    w.u64(_tickServiced);
    // The live-id set, sorted: ids identify which periodic events are
    // pending and the slot each occupies.  Their (when, prio,
    // callback) are re-created by the owning components; restore is
    // verified against this exact set.
    const std::vector<EventId> ids = liveIds();
    w.u64(ids.size());
    for (EventId id : ids)
        w.u64(id);
}

void
EventQueue::loadState(SnapshotReader &r)
{
    vip_assert(_heap.empty(), "restoring into a non-empty event queue");
    _curTick = r.tick();
    _nextSeq = r.u64();
    _serviced = r.u64();
    _tickServiced = r.u64();
    std::uint64_t n = r.u64();
    _restoreIds.clear();
    _restoreIds.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        _restoreIds.push_back(r.u64());
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
