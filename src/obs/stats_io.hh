/**
 * @file
 * Reading and comparing stats.json files (the library behind
 * vip_stats_diff and the CI perf-regression gate).
 *
 * A comparison walks the union of the two files' stat paths and
 * applies each stat's tolerance rule (recorded in the baseline, or
 * overridden on the command line):
 *
 *  - "exact":     any difference is a violation,
 *  - "pct:<b>":   |a-b| must stay within b% of the larger magnitude
 *                 (with a small absolute floor so near-zero timing
 *                 values do not fail on noise).
 *
 * Missing or extra stats and schema/run-context mismatches are
 * violations too: a renamed counter must show up in review, not
 * silently stop being compared.
 */

#ifndef VIP_OBS_STATS_IO_HH
#define VIP_OBS_STATS_IO_HH

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vip
{

/** One stat parsed back from stats.json. */
struct StatEntry
{
    std::string path;
    double value = 0.0;
    std::string unit;
    std::string tol; ///< "exact" or "pct:<band>"
    std::string desc;
};

/** A whole parsed stats.json. */
struct StatsFile
{
    int schemaVersion = 0;
    std::map<std::string, std::string> provenance;
    std::map<std::string, std::string> run; ///< workload/config/seed
    std::vector<StatEntry> stats;           ///< file order

    const StatEntry *find(const std::string &path) const;
};

/**
 * Parse a stats.json document.  Throws SimFatal on malformed JSON or
 * a document that is not kind "vip-stats".
 */
StatsFile parseStatsJson(std::istream &is);

/**
 * Tolerance overrides keyed by exact path, or by prefix when the key
 * ends in '*' ("dram.*" matches every DRAM stat).  The most specific
 * (longest) match wins.  Values use the same syntax as the files:
 * "exact" or "pct:<band>".
 */
using ToleranceOverrides = std::map<std::string, std::string>;

/** How one stat path of the two files' union was judged. */
struct StatVerdict
{
    enum class Kind
    {
        Pass,    ///< in both files, within its rule
        Fail,    ///< in both files, outside its rule
        Missing, ///< in the baseline only
        Extra,   ///< in the candidate only
    };

    std::string path;
    Kind kind = Kind::Pass;
    std::string rule;               ///< rule applied; "" for Extra
    std::optional<double> baseline; ///< absent for Extra
    std::optional<double> candidate; ///< absent for Missing
};

/** "pass", "fail", "missing" or "extra". */
const char *verdictName(StatVerdict::Kind kind);

/** Result of comparing candidate against baseline. */
struct StatsComparison
{
    bool ok = true;
    std::size_t compared = 0; ///< stats present in both files
    /** Schema and run-context mismatches, which no one stat owns. */
    std::vector<std::string> context;
    /** One row per path: the baseline's in file order, then the
     *  candidate's extras in file order. */
    std::vector<StatVerdict> rows;

    /** Every violation as one line naming what differs: the context
     *  mismatches, then each row that did not pass. */
    std::vector<std::string> violations() const;
};

/**
 * Compare @p candidate against @p baseline under the baseline's
 * per-stat tolerance rules (plus @p overrides).  Run context
 * (workload/config/seed/seconds) must match; provenance (git hash,
 * compiler) is informational and never compared.
 */
StatsComparison compareStats(const StatsFile &baseline,
                             const StatsFile &candidate,
                             const ToleranceOverrides &overrides = {});

/**
 * Apply a tolerance rule to one pair of values.  Exposed for tests.
 * @p rule is "exact" or "pct:<band>"; unknown rules compare exact.
 */
bool valuesWithinTolerance(const std::string &rule, double baseline,
                           double candidate);

} // namespace vip

#endif // VIP_OBS_STATS_IO_HH
