/**
 * @file
 * Configuration for the execution-observability subsystem.
 *
 * TraceConfig selects which event categories the Tracer records and
 * where the Chrome trace_event JSON goes.  It lives here (not in
 * tracer.hh) so SocConfig can embed it without pulling in the tracer
 * machinery.
 */

#ifndef VIP_OBS_TRACE_CONFIG_HH
#define VIP_OBS_TRACE_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace vip
{

/**
 * Trace event categories (bitmask).  Every emission site names one
 * category; the Tracer drops events whose category is filtered out
 * before they touch the ring buffer.
 */
enum class TraceCat : std::uint32_t
{
    Ip = 1u << 0,    ///< engine busy/stall/backpressure spans, unit spans
    Frame = 1u << 1, ///< per-frame lifecycle flow events across the chain
    Sa = 1u << 2,    ///< system-agent link transfers / retransmissions
    Dram = 1u << 3,  ///< DRAM channel bursts and bandwidth counters
    Cpu = 1u << 4,   ///< CPU task/ISR spans and interrupt instants
    Sched = 1u << 5, ///< lane grants, EDF decisions, context switches
    Fault = 1u << 6, ///< watchdog resets, retries, degradation, shedding
    Power = 1u << 7, ///< sleep/wake and DRAM low-power transitions
};

constexpr std::uint32_t kAllTraceCats = 0xffu;

/** Lower-case category name ("ip", "frame", ...). */
const char *traceCatName(TraceCat cat);

/**
 * Parse "cat,cat,..." (or "all") into a category mask.
 * Fatals on an unknown category name.
 */
std::uint32_t parseTraceCats(const std::string &spec);

/** Render a mask back to "cat,cat,..." (or "all"). */
std::string traceCatsToString(std::uint32_t mask);

/** Span/instant tracer configuration (--trace-out / --trace). */
struct TraceConfig
{
    /** Output file for trace_event JSON; empty disables tracing. */
    std::string out;
    /** Enabled category mask; defaults to everything. */
    std::uint32_t categories = kAllTraceCats;
    /** Ring-buffer capacity in events (oldest dropped on overflow). */
    std::size_t bufferEvents = std::size_t{1} << 19;

    bool enabled() const { return !out.empty(); }
};

} // namespace vip

#endif // VIP_OBS_TRACE_CONFIG_HH
