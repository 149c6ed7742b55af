#include "obs/stat_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/provenance.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"

namespace vip
{

namespace
{

/**
 * Shortest round-trippable formatting: %.17g renders doubles
 * losslessly but noisily; %.9g is plenty for counters and timing
 * values and keeps the file diffable by eye.  NaN/inf never appear
 * (writeJson rejects them).
 */
std::string
formatNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

void
StatRegistry::add(StatDef def)
{
    vip_assert(!def.path.empty(), "stat path must not be empty");
    vip_assert(static_cast<bool>(def.get),
               "stat needs a getter: ", def.path);
    if (!_paths.insert(def.path).second)
        panic("duplicate stat path registered: ", def.path);
    _defs.push_back(std::move(def));
}

void
StatRegistry::addTimeWeighted(std::string path, std::string desc,
                              std::string unit,
                              const stats::TimeWeighted &s)
{
    const stats::TimeWeighted *p = &s;
    addTiming(std::move(path), std::move(desc), std::move(unit),
              [p] { return p->average(); });
}

void
StatRegistry::addAccumulator(std::string path, std::string desc,
                             std::string unit,
                             const stats::Accumulator &s)
{
    const stats::Accumulator *p = &s;
    addExact(path + ".count", desc + " (samples)", "samples",
             [p] { return static_cast<double>(p->count()); });
    addTiming(path + ".mean", desc + " (mean)", unit,
              [p] { return p->mean(); });
    addTiming(path + ".min", desc + " (min)", unit,
              [p] { return p->min(); });
    addTiming(path + ".max", desc + " (max)", unit,
              [p] { return p->max(); });
}

void
StatRegistry::addLogHistogramMs(std::string path, std::string desc,
                                const LogHistogram &h)
{
    const LogHistogram *p = &h;
    auto ms = [](Tick t) { return static_cast<double>(t) / 1e9; };
    addExact(path + ".count", desc + " (samples)", "samples",
             [p] { return static_cast<double>(p->count()); });
    addTiming(path + ".mean_ms", desc + " (mean)", "ms",
              [p] { return p->mean() / 1e9; });
    addTiming(path + ".p50_ms", desc + " (p50)", "ms",
              [p, ms] { return ms(p->percentile(50)); });
    addTiming(path + ".p95_ms", desc + " (p95)", "ms",
              [p, ms] { return ms(p->percentile(95)); });
    addTiming(path + ".p99_ms", desc + " (p99)", "ms",
              [p, ms] { return ms(p->percentile(99)); });
    addTiming(path + ".max_ms", desc + " (max)", "ms",
              [p, ms] { return ms(p->max()); });
}

bool
StatRegistry::has(const std::string &path) const
{
    return _paths.count(path) != 0;
}

std::vector<std::pair<std::string, double>>
StatRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(_defs.size());
    for (const StatDef &d : _defs)
        out.emplace_back(d.path, d.get());
    std::sort(out.begin(), out.end());
    return out;
}

void
StatRegistry::writeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    // Sort by path so the file is stable under registration-order
    // changes: vip_stats_diff keys on paths, but humans diff files.
    std::vector<const StatDef *> order;
    order.reserve(_defs.size());
    for (const StatDef &d : _defs)
        order.push_back(&d);
    std::sort(order.begin(), order.end(),
              [](const StatDef *a, const StatDef *b) {
                  return a->path < b->path;
              });

    os << "{\n";
    os << "  \"schemaVersion\": " << kStatsSchemaVersion << ",\n";
    os << "  \"kind\": \"vip-stats\",\n";
    os << "  \"provenance\": {";
    bool first = true;
    for (const auto &[k, v] : provenanceFields()) {
        os << (first ? "" : ", ") << '"' << k << "\": \"" << v << '"';
        first = false;
    }
    os << "},\n";
    os << "  \"run\": {";
    first = true;
    for (const auto &[k, v] : meta) {
        os << (first ? "" : ", ") << '"' << k << "\": \"" << v << '"';
        first = false;
    }
    os << "},\n";
    os << "  \"stats\": [\n";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const StatDef &d = *order[i];
        double v = d.get();
        if (!std::isfinite(v)) {
            warn("stat ", d.path, " is not finite; dumping as 0");
            v = 0.0;
        }
        os << "    {\"path\": \"" << d.path << "\", \"value\": "
           << formatNumber(v) << ", \"unit\": \"" << d.unit
           << "\", \"tol\": \"";
        if (d.tol == Tolerance::Exact)
            os << "exact";
        else
            os << "pct:" << formatNumber(d.tolPct);
        os << "\", \"desc\": " << json::quoted(d.desc) << "}"
           << (i + 1 < order.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace vip
