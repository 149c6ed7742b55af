/**
 * @file
 * Shared helpers for the figure-reproduction benches: the standard
 * evaluation matrix (A1..A7 single apps, W1..W8 two-app workloads),
 * table printing, normalization with divide-by-zero guards, and the
 * simulated-duration knob (VIP_BENCH_SECONDS).
 */

#ifndef VIP_BENCH_BENCH_UTIL_HH
#define VIP_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "obs/provenance.hh"

namespace vip
{
namespace bench
{

/**
 * Version stamped as "schemaVersion" into every bench JSON output.
 * Bump on any change to the JSON shape so downstream consumers
 * (CI comparisons, plotting scripts) can reject files they do not
 * understand.
 */
constexpr int kBenchSchemaVersion = 2;

/**
 * Emit the build/run provenance object shared by every bench JSON:
 *   "provenance": {"git": ..., "compiler": ..., "build": ...}
 * `indent` is the leading whitespace for the line; no trailing comma.
 */
template <typename Stream>
void
writeProvenanceJson(Stream &os, const char *indent = "  ")
{
    os << indent << "\"provenance\": {";
    bool first = true;
    for (const auto &[k, v] : provenanceFields()) {
        os << (first ? "" : ", ") << '"' << k << "\": \"" << v << '"';
        first = false;
    }
    os << "}";
}

/**
 * Emit one latency-breakdown object ("{\"n\": ..., \"p50Ms\": ...}")
 * for bench JSON output.
 */
template <typename Stream>
void
writeBreakdownJson(Stream &os, const LatencyBreakdown &b)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"n\": %llu, \"meanMs\": %.6f, \"p50Ms\": %.6f, "
                  "\"p95Ms\": %.6f, \"p99Ms\": %.6f, \"maxMs\": %.6f}",
                  static_cast<unsigned long long>(b.count), b.meanMs,
                  b.p50Ms, b.p95Ms, b.p99Ms, b.maxMs);
    os << buf;
}

/**
 * Simulated seconds per run (env VIP_BENCH_SECONDS overrides).  A
 * malformed override -- trailing junk, <= 0, non-finite -- exits 1
 * instead of running a silent zero-length bench.
 */
inline double
simSeconds(double fallback = 0.25)
{
    const char *env = std::getenv("VIP_BENCH_SECONDS");
    if (!env)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
        std::fprintf(stderr,
                     "VIP_BENCH_SECONDS must be a positive number of "
                     "seconds, got '%s'\n", env);
        std::exit(1);
    }
    return v;
}

/** Audit mode applied to every runCell() (default off). */
inline AuditConfig &
auditConfig()
{
    static AuditConfig cfg;
    return cfg;
}

/**
 * Directory for per-cell stats.json dumps (--stats-dir).  Empty
 * (the default) disables them; CI points this at a scratch dir and
 * gates the files against bench/baseline/ with vip_stats_diff.
 */
inline std::string &
statsDir()
{
    static std::string dir;
    return dir;
}

/** Workloads to dump stats for (--stats-workloads, default W4). */
inline std::vector<std::string> &
statsWorkloads()
{
    static std::vector<std::string> wls{"W4"};
    return wls;
}

/**
 * Consume shared bench flags — "--audit <mode>" into auditConfig(),
 * "--stats-dir <dir>" into statsDir(), "--stats-workloads <W4,W7>"
 * into statsWorkloads() (every flag also accepts --flag=value) — and
 * return the first other argument (the benches' positional output
 * path), or nullptr.  Any other "-"-prefixed argument exits 1: a
 * mistyped flag must not become the output path.  CI uses
 * --audit=strict for the invariant gate and --stats-dir for the
 * perf-regression gate.
 */
inline const char *
parseBenchArgs(int argc, char **argv)
{
    auto splitList = [](const std::string &csv) {
        std::vector<std::string> out;
        std::size_t start = 0;
        while (start <= csv.size()) {
            auto comma = csv.find(',', start);
            if (comma == std::string::npos)
                comma = csv.size();
            if (comma > start)
                out.push_back(csv.substr(start, comma - start));
            start = comma + 1;
        }
        return out;
    };
    const char *positional = nullptr;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--audit" && i + 1 < argc) {
            auditConfig() = AuditConfig::parse(argv[++i]);
        } else if (arg.rfind("--audit=", 0) == 0) {
            auditConfig() = AuditConfig::parse(arg.substr(8));
        } else if (arg == "--stats-dir" && i + 1 < argc) {
            statsDir() = argv[++i];
        } else if (arg.rfind("--stats-dir=", 0) == 0) {
            statsDir() = arg.substr(12);
        } else if (arg == "--stats-workloads" && i + 1 < argc) {
            statsWorkloads() = splitList(argv[++i]);
        } else if (arg.rfind("--stats-workloads=", 0) == 0) {
            statsWorkloads() = splitList(arg.substr(18));
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "fatal: unknown argument '%s'\n",
                         argv[i]);
            std::exit(1);
        } else if (!positional) {
            positional = argv[i];
        }
    }
    return positional;
}

/** The paper's evaluation columns: A1..A7 then W1..W8. */
inline std::vector<Workload>
evaluationMatrix()
{
    std::vector<Workload> out;
    for (int a = 1; a <= 7; ++a)
        out.push_back(WorkloadCatalog::single(a));
    for (int w = 1; w <= 8; ++w)
        out.push_back(WorkloadCatalog::byIndex(w));
    return out;
}

/**
 * Run one (config, workload) cell of the matrix; @p done, if set,
 * sees the finished Simulation (bench_paper dumps its stats there).
 */
inline RunStats
runCell(SystemConfig config, const Workload &wl, double seconds,
        std::uint64_t seed = 1,
        const std::function<void(Simulation &)> &done = nullptr)
{
    SocConfig cfg;
    cfg.system = config;
    cfg.simSeconds = seconds;
    cfg.seed = seed;
    cfg.audit = auditConfig();
    Simulation sim(std::move(cfg), wl);
    RunStats stats = sim.run();
    if (done)
        done(sim);
    return stats;
}

/** value/reference with a floor guarding zero references. */
inline double
normalized(double value, double reference, double floor_ref = 1e-9)
{
    return value / std::max(reference, floor_ref);
}

/** Geometric-free arithmetic mean. */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Print a header row: label then one column per workload + AVG. */
inline void
printHeader(const char *label, const std::vector<Workload> &wls)
{
    std::printf("%-14s", label);
    for (const auto &w : wls)
        std::printf(" %8s", w.name.c_str());
    std::printf(" %8s\n", "AVG");
}

/** Print a series row with its AVG appended. */
inline void
printRow(const std::string &label, const std::vector<double> &vals)
{
    std::printf("%-14s", label.c_str());
    for (double v : vals)
        std::printf(" %8.3f", v);
    std::printf(" %8.3f\n", mean(vals));
}

inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s\n  (reproduces %s)\n", what, paper_ref);
    std::printf("==================================================="
                "=========================\n");
}

} // namespace bench
} // namespace vip

#endif // VIP_BENCH_BENCH_UTIL_HH
