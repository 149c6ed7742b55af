/**
 * @file
 * Frame-event tracing (GemDroid-style trace record/replay).
 *
 * The simulator can record every frame's lifecycle (generation,
 * processing start, completion, QoS verdict) into a FrameTrace, dump
 * it as CSV, and reload it — useful both for debugging and for
 * trace-driven re-analysis without re-running the platform model.
 */

#ifndef VIP_APP_TRACE_HH
#define VIP_APP_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace vip
{

/** One frame's recorded lifecycle. */
struct FrameEvent
{
    std::uint32_t flowId = 0;
    std::string flowName;
    std::uint64_t frameId = 0;
    Tick generated = 0;   ///< nominal generation time (k / fps)
    Tick started = 0;     ///< first stage began processing
    Tick completed = 0;   ///< consumed by the sink
    Tick deadline = 0;    ///< QoS deadline
    bool violated = false;///< completed after the deadline
    bool dropped = false; ///< missed by more than one period

    /** Processing latency through the IP chain. */
    Tick flowTime() const
    {
        return completed >= started ? completed - started : 0;
    }
};

/** An append-only trace of frame events. */
class FrameTrace
{
  public:
    void record(FrameEvent ev) { _events.push_back(std::move(ev)); }

    const std::vector<FrameEvent> &events() const { return _events; }
    /** Mutable records: only checkpoint restore replaces them. */
    std::vector<FrameEvent> &events() { return _events; }
    std::size_t size() const { return _events.size(); }
    bool empty() const { return _events.empty(); }

    /** @{ Aggregates. */
    std::uint64_t countViolations() const;
    std::uint64_t countDrops() const;
    double meanFlowTimeMs() const;
    /** @} */

    /** Write as CSV (with header). */
    void dumpCsv(std::ostream &os) const;

    /** Parse a CSV previously produced by dumpCsv(). */
    static FrameTrace loadCsv(std::istream &is);

  private:
    std::vector<FrameEvent> _events;
};

} // namespace vip

#endif // VIP_APP_TRACE_HH
