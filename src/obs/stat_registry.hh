/**
 * @file
 * Hierarchical, self-describing statistics registry.
 *
 * Every SimObject (and the Simulation itself) registers named stats
 * under dotted paths — `ip.vd.busy_ms`, `dram.ch0.bursts`,
 * `sa.bytes_forwarded`, `flow.2.frames_shed` — each with a unit, a
 * description, and a tolerance class that tells the cross-run
 * comparator (`vip_stats_diff`) how the value may legally move
 * between runs:
 *
 *  - Tolerance::Exact:   conservation counters (bytes, frames,
 *                        events).  Any difference is a violation.
 *  - Tolerance::Percent: timing/derived values.  Allowed to move
 *                        within a percentage band.
 *
 * Stats are registered as getter closures over live component state,
 * so the registry never copies or samples anything during the run:
 * it is purely observational (no events, no randomness, no digest
 * contribution) and reading it happens only at dump time.
 *
 * writeJson() emits the schemaVersion'd, provenance-stamped
 * `stats.json` consumed by `vip_stats_diff` and the flight recorder.
 */

#ifndef VIP_OBS_STAT_REGISTRY_HH
#define VIP_OBS_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace vip
{

namespace stats
{
class TimeWeighted;
class Accumulator;
} // namespace stats

class LogHistogram;

/** How vip_stats_diff may let a stat move between runs. */
enum class Tolerance
{
    Exact,   ///< must match bit-for-bit (conservation counters)
    Percent, ///< may move within a percentage band (timing)
};

/** One registered stat: identity, documentation, and how to read it. */
struct StatDef
{
    std::string path; ///< dotted hierarchical name
    std::string desc;
    std::string unit; ///< "", "bytes", "ms", "frames", ...
    Tolerance tol = Tolerance::Exact;
    double tolPct = 0.0; ///< band for Tolerance::Percent
    std::function<double()> get;
};

class StatRegistry
{
  public:
    /** Default percentage band for addTiming()/timing adders. */
    static constexpr double kDefaultTimingBandPct = 5.0;

    /** Version stamped as "schemaVersion" into every stats.json. */
    static constexpr int kStatsSchemaVersion = 1;

    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Register a stat under @p path.  Duplicate paths panic: two
     * components silently shadowing each other's counters is exactly
     * the scattering this registry exists to end.
     */
    void add(StatDef def);

    /** Register an exactly-compared getter (conservation counters). */
    void
    addExact(std::string path, std::string desc, std::string unit,
             std::function<double()> get)
    {
        add({std::move(path), std::move(desc), std::move(unit),
             Tolerance::Exact, 0.0, std::move(get)});
    }

    /** Register a percentage-band getter (timing/derived values). */
    void
    addTiming(std::string path, std::string desc, std::string unit,
              std::function<double()> get,
              double bandPct = kDefaultTimingBandPct)
    {
        add({std::move(path), std::move(desc), std::move(unit),
             Tolerance::Percent, bandPct, std::move(get)});
    }

    /** @{ Adapters for the src/stats distribution types. */
    void addTimeWeighted(std::string path, std::string desc,
                         std::string unit, const stats::TimeWeighted &s);
    /** count (exact) + mean/min/max (banded) under path.*. */
    void addAccumulator(std::string path, std::string desc,
                        std::string unit, const stats::Accumulator &s);
    /** count (exact) + mean/p50/p95/p99/max in ms under path.*. */
    void addLogHistogramMs(std::string path, std::string desc,
                           const LogHistogram &h);
    /** @} */

    bool has(const std::string &path) const;
    std::size_t size() const { return _defs.size(); }
    const std::vector<StatDef> &defs() const { return _defs; }

    /** Evaluate every stat now: (path, value), sorted by path. */
    std::vector<std::pair<std::string, double>> snapshot() const;

    /**
     * Write the self-describing stats.json: schemaVersion, build
     * provenance, run context (@p meta: workload, config, seed,
     * seconds), then every stat sorted by path with value, unit,
     * description and tolerance rule.
     */
    void writeJson(
        std::ostream &os,
        const std::vector<std::pair<std::string, std::string>> &meta
        = {}) const;

  private:
    std::vector<StatDef> _defs;
    std::unordered_set<std::string> _paths;
};

} // namespace vip

#endif // VIP_OBS_STAT_REGISTRY_HH
