/**
 * @file
 * What vip_bench runs inside each child process: the benchmark
 * workloads, the fixed-work layer legs, and the registry digest that
 * checks a run's simulated output.
 *
 * A child reports back over a pipe, one record per line (Report).  The
 * parent (vip_bench.cc) turns those raw sums into metrics.
 */

#ifndef VIP_BENCH_OPS_HH
#define VIP_BENCH_OPS_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "app/workload.hh"
#include "core/soc_config.hh"
#include "obs/stat_registry.hh"

namespace vipbench
{

/** One simulation: a (config, app mix, duration, fault plan) cell. */
struct Cell
{
    /** "dram_bound", ... or "paper_matrix/<config>-<column>". */
    std::string name;
    vip::SocConfig cfg;
    vip::Workload wl;
};

/** The benchmark workloads, in round-robin order. */
const std::vector<std::string> &workloadNames();

/**
 * The cells one op of @p workload runs, in order.  @p smoke shortens
 * every cell to 10 sim-ms.  Throws SimFatal on an unknown name.
 */
std::vector<Cell> cellsOf(const std::string &workload, std::uint64_t seed,
                          bool smoke);

/**
 * FNV-1a over (path, value bits) of every registry stat, skipping the
 * paths that exist only while the profiler is armed, so traced and
 * untraced runs of one cell digest the same.
 */
std::uint64_t registryDigest(const vip::StatRegistry &reg);

/** Expected digests of one seed: cell name -> digest. */
using CellDigests = std::map<std::string, std::uint64_t>;

/** Linearly interpolated @p p quantile (0..1) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** steady_clock now, in ns (CLOCK_MONOTONIC: comparable across
 *  processes, so child spans nest inside the parent's op span). */
std::int64_t nowNs();

/** Child-side record writer for the result pipe. */
class Report
{
  public:
    explicit Report(std::FILE *f) : _f(f) {}

    /** One raw value of the op (a sum over its cells), by key. */
    void value(const std::string &key, double v);
    void digest(const std::string &cell, std::uint64_t d);
    void span(const char *name, const std::string &cell, std::int64_t t0,
              std::int64_t t1);
    void error(const std::string &what);

  private:
    std::FILE *_f;
};

/**
 * Run @p cells in sequence (one op) and report raw sums over them:
 * setup/run/collect ns, simulated ms, event and component counts, the
 * modelled SoC numbers and, when @p traced, the profiler's per-layer
 * wall estimates.  Every cell's digest is reported and its flow
 * conservation checked (SimFatal when broken).  A cell whose digest
 * differs from @p expected (when it has an entry) leaves its
 * stats.json in @p keepDir for vip_stats_diff.
 */
void runCells(const std::vector<Cell> &cells, bool traced,
              const CellDigests *expected, const std::string &keepDir,
              Report &out);

/** Construct @p cell's Simulation once; reports the time as "setup_ns". */
void setupOnce(const Cell &cell, Report &out);

/**
 * The fixed-work layer legs (legs.cc): each runs @p batches times on a
 * freshly built component, construction outside the timed region, and
 * reports the fastest decile of ns per item under its metric name.
 */
void runLegs(int batches, Report &out);

} // namespace vipbench

#endif // VIP_BENCH_OPS_HH
