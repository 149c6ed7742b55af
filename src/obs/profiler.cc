#include "obs/profiler.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <ostream>

#include "obs/provenance.hh"

namespace vip
{

/**
 * Every kind tag the component schedule() sites use.  New tags must
 * be added here too: the catalog drives the pre-registered prof.*
 * stat namespace, and a tag missing from it would profile correctly
 * but export no stats.  "other" collects untagged events.
 */
const char *const kProfKindCatalog[] = {
    "ip.unit",     ///< stream-engine unit completion
    "ip.watchdog", ///< per-unit fault watchdog timer
    "ip.gen",      ///< source-IP frame generation
    "dram.burst",  ///< DRAM transaction service completion
    "dram.bw",     ///< bandwidth-window sampling
    "dram.lp",     ///< low-power state timer
    "sa.transfer", ///< system-agent transfer delivery
    "sa.signal",   ///< doorbell/completion signal latency
    "cpu.wake",    ///< core wake latency
    "cpu.task",    ///< software task completion
    "cpu.gov",     ///< DVFS governor tick
    "cpu.sleep",   ///< idle sleep timer
    "flow.gen",    ///< application frame generation
    "flow.input",  ///< touch/input injection
    "sim.audit",   ///< periodic invariant audit
    "sim.guard",   ///< no-progress guard check
    "sim.stop",    ///< scheduled app stop
    "other",       ///< untagged events
};
const std::size_t kProfKindCatalogSize =
    sizeof(kProfKindCatalog) / sizeof(kProfKindCatalog[0]);

namespace
{

/** Median of ~1,000 back-to-back steady_clock pairs, in ns. */
double
measureClockPairNs()
{
    using Clock = std::chrono::steady_clock;
    std::array<std::int64_t, 1001> ns{};
    for (std::int64_t &v : ns) {
        const auto t0 = Clock::now();
        const auto t1 = Clock::now();
        v = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count();
    }
    auto mid = ns.begin() + ns.size() / 2;
    std::nth_element(ns.begin(), mid, ns.end());
    return static_cast<double>(*mid);
}

} // namespace

Profiler::Profiler(const ProfConfig &cfg)
    : _sampleEvery(cfg.sampleEvery == 0 ? 1 : cfg.sampleEvery),
      _clockPairNs(measureClockPairNs())
{
    _used.reserve(kSlots);
    _timeline.reserve(kTimelineCap);
}

std::uint64_t
Profiler::dispatches() const
{
    std::uint64_t n = 0;
    for (std::size_t i : _used)
        n += _table[i].count;
    return n;
}

std::uint64_t
Profiler::sampledDispatches() const
{
    std::uint64_t n = 0;
    for (std::size_t i : _used)
        n += _table[i].sampled;
    return n;
}

std::vector<ProfKindRow>
Profiler::rows() const
{
    // Merge slots by name: identical literals in different
    // translation units may have distinct addresses, so the hot path
    // counts per pointer and the report folds per name.
    std::vector<ProfKindRow> out;
    for (std::size_t i : _used) {
        const KindSlot &s = _table[i];
        ProfKindRow *row = nullptr;
        for (ProfKindRow &r : out) {
            if (std::strcmp(r.kind.c_str(), s.kind) == 0) {
                row = &r;
                break;
            }
        }
        if (!row) {
            out.push_back(ProfKindRow{});
            row = &out.back();
            row->kind = s.kind;
            row->clockPairNs = _clockPairNs;
        }
        row->count += s.count;
        row->sampled += s.sampled;
        row->wallNs += s.wallNs;
    }
    std::sort(out.begin(), out.end(),
              [](const ProfKindRow &a, const ProfKindRow &b) {
                  const double ea = a.estTotalNs();
                  const double eb = b.estTotalNs();
                  if (ea != eb)
                      return ea > eb;
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.kind < b.kind;
              });
    return out;
}

double
Profiler::countFor(const char *kind) const
{
    double n = 0.0;
    for (std::size_t i : _used) {
        if (_table[i].kind == kind ||
            std::strcmp(_table[i].kind, kind) == 0)
            n += static_cast<double>(_table[i].count);
    }
    return n;
}

double
Profiler::wallNsFor(const char *kind) const
{
    double n = 0.0;
    for (std::size_t i : _used) {
        if (_table[i].kind == kind ||
            std::strcmp(_table[i].kind, kind) == 0)
            n += static_cast<double>(_table[i].wallNs);
    }
    return n;
}

void
Profiler::writeJson(
    std::ostream &os, double simMs,
    const std::vector<std::pair<std::string, std::string>> &runMeta)
    const
{
    const std::vector<ProfKindRow> table = rows();
    const std::uint64_t events = dispatches();
    const std::uint64_t sampled = sampledDispatches();

    // Wall time attributed to sampled callbacks, net of the timer
    // and scaled up by the sampling ratio: the remainder of runWallMs
    // is the loop itself (heap ops and the pre-service hook between
    // events).
    double estCallbackNs = 0.0;
    for (const ProfKindRow &r : table)
        estCallbackNs += r.estTotalNs();

    os << "{\n"
       << "  \"kind\": \"vip-prof\",\n"
       << "  \"schemaVersion\": " << kSchemaVersion << ",\n";
    os << "  \"run\": {";
    for (std::size_t i = 0; i < runMeta.size(); ++i) {
        os << (i ? ", " : "") << "\"" << runMeta[i].first << "\": \""
           << runMeta[i].second << "\"";
    }
    os << "},\n";
    os << "  \"provenance\": {";
    {
        bool first = true;
        for (const std::string &line : provenanceMetaLines()) {
            const auto eq = line.find('=');
            if (eq == std::string::npos)
                continue;
            os << (first ? "" : ", ") << "\"" << line.substr(0, eq)
               << "\": \"" << line.substr(eq + 1) << "\"";
            first = false;
        }
    }
    os << "},\n";
    os << "  \"sim_ms\": " << simMs << ",\n"
       << "  \"wall_ms\": " << _runWallMs << ",\n"
       << "  \"sample_every\": " << _sampleEvery << ",\n"
       << "  \"clock_pair_ns\": " << _clockPairNs << ",\n"
       << "  \"events\": " << events << ",\n"
       << "  \"sampled\": " << sampled << ",\n"
       << "  \"est_callback_ms\": " << estCallbackNs / 1e6 << ",\n";

    os << "  \"eventq\": {\n"
       << "    \"max_pending\": " << _maxPending << ",\n"
       << "    \"max_heap\": " << _maxHeap << ",\n"
       << "    \"timeline_stride\": " << timelineStride() << ",\n"
       << "    \"timeline\": [";
    for (std::size_t i = 0; i < _timeline.size(); ++i) {
        const ProfQueueSample &s = _timeline[i];
        os << (i ? ",\n      " : "\n      ") << "{\"tick\": "
           << s.tick << ", \"pending\": " << s.pending << "}";
    }
    os << (_timeline.empty() ? "]" : "\n    ]") << "\n  },\n";

    os << "  \"alloc\": {\"frame_cursor_bytes\": " << _allocCursor
       << "},\n";

    os << "  \"kinds\": [\n";
    for (std::size_t i = 0; i < table.size(); ++i) {
        const ProfKindRow &r = table[i];
        os << "    {\"kind\": \"" << r.kind
           << "\", \"count\": " << r.count
           << ", \"sampled\": " << r.sampled
           << ", \"wall_ns\": " << r.wallNs
           << ", \"est_total_ns\": " << r.estTotalNs() << "}"
           << (i + 1 < table.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

} // namespace vip
