/**
 * @file
 * StateIO: one checkpoint schema per component, for both directions.
 *
 * A stateful component names its checkpoint fields once, in
 * `void io(StateIO &io)`.  While saving, each call appends the field
 * to the open section of a SnapshotWriter; while loading, the same
 * call reads it back into the same variable.  Save and load therefore
 * share one field list and cannot drift apart.
 *
 * Helpers cover what is not a plain field:
 *  - shape(), expect() and presence(): counts, names and optional
 *    parts that the run's configuration fixes.  On load a mismatch is
 *    a SimFatal naming the owner and both values.
 *  - seq32()/seq64(): variable-length sequences.  A count read from
 *    the file is rejected when it exceeds the bytes left in the open
 *    section (every element takes at least one byte), before anything
 *    is sized from it.
 *  - event(): one tracked pending event — a live flag, then its id and
 *    fire tick.  On load it is re-armed with the callback given.
 *
 * Values with no plain variable to bind (an RNG state behind a
 * setter) go through a local that is written back only when
 * loading().  Load-only steps (re-wiring, rebuilding derived state)
 * sit behind loading(); saving never changes component state.
 */

#ifndef VIP_SIM_STATE_IO_HH
#define VIP_SIM_STATE_IO_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace vip
{

class StateIO
{
  public:
    /** Save into @p w; events are looked up in @p eq. */
    StateIO(SnapshotWriter &w, EventQueue &eq) : _w(&w), _eq(eq) {}
    /** Load from @p r; events are re-armed in @p eq. */
    StateIO(SnapshotReader &r, EventQueue &eq) : _r(&r), _eq(eq) {}

    bool saving() const { return _w != nullptr; }
    bool loading() const { return _r != nullptr; }

    /** Run @p body inside the section @p name (checked on load, in
     *  order; trailing unread bytes are fatal). */
    template <class F>
    void
    section(const std::string &name, F &&body)
    {
        if (_w)
            _w->beginSection(name);
        else
            _r->openSection(name);
        body();
        if (_r)
            _r->closeSection();
    }

    /** @{ Plain fields.  Integer and enum fields of any type are
     *  stored at the width the call names. */
    void b(bool &v) { if (_w) _w->b(v); else v = _r->b(); }
    void d(double &v) { if (_w) _w->d(v); else v = _r->d(); }
    void str(std::string &v) { if (_w) _w->str(v); else v = _r->str(); }
    void tick(Tick &v) { u64(v); }
    template <class T> void u8(T &v) { word<std::uint8_t>(v); }
    template <class T> void u32(T &v) { word<std::uint32_t>(v); }
    template <class T> void u64(T &v) { word<std::uint64_t>(v); }
    template <class T> void i64(T &v) { word<std::int64_t>(v); }
    /** @} */

    /** A count the configuration fixes, stored as u32. */
    void
    shape(const std::string &owner, const char *what, std::size_t have)
    {
        std::uint32_t saved = static_cast<std::uint32_t>(have);
        u32(saved);
        if (saved != have) {
            fatal(owner, ": snapshot has ", saved, " ", what,
                  ", this run has ", have, " (config mismatch)");
        }
    }

    /** A name (std::string) or id (std::uint32_t / std::uint64_t) the
     *  configuration fixes, stored at its own width. */
    template <class T>
    void
    expect(const std::string &owner, const char *what, const T &have)
    {
        T saved = have;
        if constexpr (std::is_same_v<T, std::string>)
            str(saved);
        else
            word<T>(saved);
        if (saved != have) {
            fatal(owner, ": snapshot ", what, " '", saved,
                  "' != this run's '", have, "' (config mismatch)");
        }
    }

    /** An optional part the configuration fixes; returns @p have. */
    bool
    presence(const std::string &owner, const char *what, bool have)
    {
        bool saved = have;
        b(saved);
        if (saved != have) {
            fatal(owner, ": snapshot ", saved ? "has" : "has no", " ",
                  what, ", this run ", have ? "has one" : "has none",
                  " (config mismatch)");
        }
        return have;
    }

    /** @{ A variable-length sequence's count, stored as u32 / u64:
     *  writes @p have, or returns the count read, bounded by the bytes
     *  left in the section. */
    std::size_t
    seq32(std::size_t have, const char *what)
    {
        return count<std::uint32_t>(have, what);
    }
    std::size_t
    seq64(std::size_t have, const char *what)
    {
        return count<std::uint64_t>(have, what);
    }
    /** @} */

    /** @{ A vector or deque, element by element through @p each; on
     *  load it is replaced by as many default elements as the file
     *  holds. */
    template <class C, class F>
    void
    seq32(C &c, const char *what, F &&each)
    {
        elements(c, seq32(c.size(), what), each);
    }
    template <class C, class F>
    void
    seq64(C &c, const char *what, F &&each)
    {
        elements(c, seq64(c.size(), what), each);
    }
    /** @} */

    /**
     * One tracked pending event: a live flag, then (when live) its id
     * and fire tick.  On load, a live event is re-armed under its
     * saved id with @p cb, @p prio and @p kind, and @p id is set; a
     * dead one leaves @p id invalid.  Returns whether it was live, so
     * a caller can follow it with the event's own payload.
     */
    bool
    event(EventId &id, EventQueue::Callback cb, EventPriority prio,
          const char *kind)
    {
        bool live = _w && id != InvalidEventId && _eq.isLive(id);
        b(live);
        if (!live) {
            if (_r)
                id = InvalidEventId;
            return false;
        }
        Tick when = _w ? _eq.scheduledWhen(id) : 0;
        u64(id);
        tick(when);
        if (_r)
            _eq.restoreEvent(id, when, std::move(cb), prio, kind);
        return true;
    }

  private:
    template <class W, class T>
    void
    word(T &v)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        W w = static_cast<W>(v);
        raw(w);
        if (_r)
            v = static_cast<T>(w);
    }

    void raw(std::uint8_t &v) { if (_w) _w->u8(v); else v = _r->u8(); }
    void raw(std::uint32_t &v) { if (_w) _w->u32(v); else v = _r->u32(); }
    void raw(std::uint64_t &v) { if (_w) _w->u64(v); else v = _r->u64(); }
    void raw(std::int64_t &v) { if (_w) _w->i64(v); else v = _r->i64(); }

    template <class W>
    std::size_t
    count(std::size_t have, const char *what)
    {
        W n = static_cast<W>(have);
        raw(n);
        if (_r && n > _r->sectionBytesLeft()) {
            fatal("snapshot '", _r->path(), "': section '",
                  _r->sectionName(), "' claims ", n, " ", what,
                  " but holds only ", _r->sectionBytesLeft(),
                  " more bytes (corrupt or version skew)");
        }
        return static_cast<std::size_t>(n);
    }

    template <class C, class F>
    void
    elements(C &c, std::size_t n, F &each)
    {
        if (_r) {
            c.clear();
            c.resize(n);
        }
        for (auto &e : c)
            each(e);
    }

    SnapshotWriter *_w = nullptr;
    SnapshotReader *_r = nullptr;
    EventQueue &_eq;
};

} // namespace vip

#endif // VIP_SIM_STATE_IO_HH
