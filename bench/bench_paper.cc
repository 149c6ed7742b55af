/**
 * @file
 * The paper's evaluation in one run: each of the 75 (configuration,
 * workload) cells of kAllConfigs x evaluationMatrix() is simulated
 * once, on every hardware thread, and Figs 15-18 and the headline
 * table are printed from those runs.  Runs share no state
 * (Isolation.ConcurrentThreadsMatchSoloRunsBitForBit) and nothing is
 * printed before the last cell finishes, so the thread count never
 * reaches the output.  --audit applies to every cell; --stats-dir
 * writes the stats.json of the --stats-workloads columns from the
 * same runs.
 */

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <span>
#include <thread>

#include "bench_util.hh"

namespace
{

using namespace vip;
using namespace vip::bench;
using enum SystemConfig;

/** One (configuration, workload) run of the matrix. */
struct Cell
{
    SystemConfig config;
    std::size_t column;      ///< index into evaluationMatrix()
    std::string statsPath{}; ///< set: write the run's stats.json here
    std::size_t statCount = 0;
    RunStats stats{};
    std::exception_ptr error{};
};

/** The 75 cells, kAllConfigs-major over the evaluation columns. */
struct Matrix
{
    std::vector<Workload> wls = evaluationMatrix();
    std::vector<Cell> cells;

    Matrix()
    {
        for (SystemConfig c : kAllConfigs)
            for (std::size_t w = 0; w < wls.size(); ++w)
                cells.push_back({c, w});
    }

    const RunStats &
    at(SystemConfig c, std::size_t w) const
    {
        const std::size_t k = std::ranges::find(kAllConfigs, c) - kAllConfigs;
        return cells[k * wls.size() + w].stats;
    }
};

/**
 * Give the cells of the --stats-workloads columns their
 * <statsDir()>/<config>-<workload>.stats.json path, the files the CI
 * perf-regression gate diffs against bench/baseline/.  CLI-style
 * config names keep them shell-safe ("IP-to-IP+FB" would glob badly).
 */
void
selectStatsCells(Matrix &m)
{
    if (statsDir().empty())
        return;
    for (const std::string &name : statsWorkloads()) {
        const std::string column = WorkloadCatalog::byName(name).name;
        bool found = false;
        for (Cell &cell : m.cells) {
            if (m.wls[cell.column].name != column)
                continue;
            cell.statsPath = statsDir() + "/" +
                             systemConfigCliName(cell.config) + "-" +
                             column + ".stats.json";
            if (!std::ofstream(cell.statsPath)) // fail before any run
                fatal("cannot write ", cell.statsPath);
            found = true;
        }
        if (!found)
            fatal("--stats-workloads: ", name, " is not a column of "
                  "the evaluation matrix (A1..A7, W1..W8)");
    }
}

/**
 * Run every cell once on hardware_concurrency() workers.  Failures
 * are rethrown after all cells finish, the first in cell order, so
 * the error reported does not depend on scheduling either.
 */
void
runAll(Matrix &m, double seconds)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&m, &next, seconds] {
        for (std::size_t i; (i = next++) < m.cells.size();) {
            Cell &cell = m.cells[i];
            auto dump = [&cell](Simulation &sim) {
                if (cell.statsPath.empty())
                    return;
                std::ofstream out(cell.statsPath);
                sim.writeStatsJson(out);
                if (!out)
                    fatal("cannot write ", cell.statsPath);
                cell.statCount = sim.statsRegistry().size();
            };
            try {
                cell.stats = runCell(cell.config, m.wls[cell.column],
                                     seconds, 1, dump);
            } catch (...) {
                cell.error = std::current_exception();
            }
        }
    };
    const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
    {
        std::vector<std::jthread> pool; // joined on scope exit
        for (unsigned t = 1; t < workers; ++t)
            pool.emplace_back(worker);
        worker();
    }
    for (const Cell &cell : m.cells) {
        if (cell.error)
            std::rethrow_exception(cell.error);
    }
}

/** A header, then one row per configuration of @p value(c, column). */
template <typename F>
void
printTable(const Matrix &m, std::span<const SystemConfig> configs,
           F value)
{
    printHeader("config", m.wls);
    for (SystemConfig c : configs) {
        std::vector<double> row;
        for (std::size_t w = 0; w < m.wls.size(); ++w)
            row.push_back(value(c, w));
        printRow(systemConfigName(c), row);
    }
}

/** @p field of each configuration, normalized to Baseline's. */
void
printNormalized(const Matrix &m, std::span<const SystemConfig> configs,
                double RunStats::*field)
{
    printTable(m, configs, [&m, field](SystemConfig c, std::size_t w) {
        return normalized(m.at(c, w).*field, m.at(Baseline, w).*field);
    });
}

void
printFig15(const Matrix &m)
{
    banner("Figure 15: energy per frame, normalized to Baseline",
           "Fig 15 (5 configurations x A1..A7, W1..W8, AVG)");
    printNormalized(m, kAllConfigs, &RunStats::energyPerFrameMj);

    std::printf("\nPaper shape: FrameBurst ~0.9x, IP-to-IP family"
                " substantially lower, VIP lowest\n(~22%% below"
                " IP-to-IP on average; ~38%% below Baseline).\n");
    // The sentence above is the paper's; this line is the run's own
    // AVG column, so a reader sees where the two part.
    auto avg = [&m](SystemConfig c) {
        std::vector<double> row;
        for (std::size_t w = 0; w < m.wls.size(); ++w)
            row.push_back(normalized(m.at(c, w).energyPerFrameMj,
                                     m.at(Baseline, w).energyPerFrameMj));
        return mean(row);
    };
    SystemConfig lowest = Baseline;
    for (SystemConfig c : kAllConfigs)
        if (avg(c) < avg(lowest))
            lowest = c;
    std::printf("This run: lowest AVG is %s at %.3f; VIP's is %.3f.\n",
                systemConfigName(lowest), avg(lowest), avg(VIP));
}

void
printFig16(const Matrix &m)
{
    banner("Figure 16: CPU energy / instruction / interrupt savings "
           "from frame bursts",
           "Figs 16a and 16b");
    // Percent reduction of FrameBurst against Baseline.
    auto saving = [&m]<typename T>(T RunStats::*field) {
        std::vector<double> row;
        for (std::size_t w = 0; w < m.wls.size(); ++w) {
            row.push_back(100.0 * (1.0 - normalized(
                double(m.at(FrameBurst, w).*field),
                double(m.at(Baseline, w).*field))));
        }
        return row;
    };

    std::printf("Fig 16a:\n");
    printHeader("metric", m.wls);
    printRow("%cpuEnergyRed", saving(&RunStats::cpuEnergyMj));
    printRow("%instrRed", saving(&RunStats::instructions));

    std::printf("\nFig 16b: interrupts per 100 ms\n");
    const SystemConfig shown[] = {Baseline, FrameBurst};
    printTable(m, shown, [&m](SystemConfig c, std::size_t w) {
        return m.at(c, w).interruptsPer100ms;
    });

    std::printf("\nPaper shape: ~25%% average CPU-energy reduction,"
                " ~40%% fewer instructions,\nand an order-of-"
                "magnitude interrupt reduction.\n");
}

void
printFig17(const Matrix &m)
{
    banner("Figure 17: flow time per frame, normalized to Baseline",
           "Fig 17 (Baseline / FrameBurst / IP-to-IP+FB / VIP)");
    const SystemConfig shown[] = {Baseline, FrameBurst, IpToIpBurst, VIP};

    std::printf("(a) latency from nominal frame generation\n");
    printNormalized(m, shown, &RunStats::meanFlowTimeMs);
    std::printf("\n(b) pipeline transit (first stage -> sink,"
                " queueing included)\n");
    printNormalized(m, shown, &RunStats::meanTransitMs);

    std::printf("\nPaper shape: IP-to-IP cuts flow time sharply (no"
                " DRAM staging); bursts help\nfurther on single-app"
                " columns; VIP gives up a little vs the burst mode"
                "\n(context switching) but never the QoS.\n");
}

/** A column whose Baseline misses no frame (the paper's device always
 *  does; our window may not) is normalized to a one-frame floor. */
void
printFig18(const Matrix &m)
{
    banner("Figure 18: QoS violations, normalized to Baseline",
           "Fig 18 (5 configurations x A1..A7, W1..W8, AVG)");
    auto violations = [&m](SystemConfig c, std::size_t w) {
        return static_cast<double>(m.at(c, w).violations);
    };

    std::printf("Absolute QoS violations (frames past deadline)\n");
    printTable(m, kAllConfigs, violations);

    std::printf("\nNormalized to Baseline (floor of 1 frame guards"
                " zero-violation columns)\n");
    printTable(m, kAllConfigs, [&](SystemConfig c, std::size_t w) {
        return normalized(violations(c, w),
                          std::max(violations(Baseline, w), 1.0));
    });

    std::printf("\nPaper shape: FrameBurst and IP-to-IP+FB *degrade*"
                " QoS on multi-app workloads\n(head-of-line blocking,"
                " up to ~2x); VIP ends lowest, ~15%% fewer\n"
                "violations/drops than IP-to-IP (the abstract's"
                " base).\n");
}

/**
 * Over W1..W8: the abstract's "~22% energy saving and ~15% improvement
 * in QoS (frame drop rate) compared to just enabling IP-to-IP
 * communication", the conclusion's "10% improvement in frame
 * processing time", and FrameBurst's CPU savings (Fig 16).
 */
void
printHeadline(const Matrix &m)
{
    banner("Headline summary: paper claims vs this reproduction",
           "abstract + Section 6.2 + conclusion");
    auto sum = [&m]<typename T>(SystemConfig c, T RunStats::*field) {
        double s = 0;
        for (std::size_t w = 0; w < m.wls.size(); ++w) {
            if (m.wls[w].name[0] == 'W')
                s += double(m.at(c, w).*field);
        }
        return s;
    };
    const auto e = &RunStats::energyPerFrameMj;
    const auto t = &RunStats::meanTransitMs;
    const auto v = &RunStats::violations;
    const auto cpu = &RunStats::cpuEnergyMj;
    const auto ins = &RunStats::instructions;
    const auto irq = &RunStats::interruptsPer100ms;
    const double vBase = std::max(sum(Baseline, v), 1.0);
    auto cut = [](const char *claim, const char *paper, double from,
                  double to) {
        std::printf("%-52s %9s%% %11.1f%%\n", claim, paper,
                    100.0 * (1.0 - to / std::max(from, 1e-9)));
    };
    auto ratio = [](const char *claim, const char *paper, double x) {
        std::printf("%-52s %9s %12.2f\n", claim, paper, x);
    };

    std::printf("%-52s %10s %12s\n", "claim (two-app workloads W1..W8"
                " unless noted)", "paper", "measured");
    cut("VIP energy saving vs IP-to-IP", "~22", sum(IpToIp, e),
        sum(VIP, e));
    cut("VIP energy saving vs Baseline", "~38", sum(Baseline, e),
        sum(VIP, e));
    cut("VIP transit-time improvement vs IP-to-IP", "~10",
        sum(IpToIp, t), sum(VIP, t));
    cut("VIP transit-time improvement vs Baseline", "-",
        sum(Baseline, t), sum(VIP, t));
    cut("VIP QoS-violation reduction vs IP-to-IP", "~15",
        std::max(sum(IpToIp, v), 1.0), sum(VIP, v));
    cut("IP-to-IP QoS-violation reduction vs Baseline", "~5", vBase,
        sum(IpToIp, v));
    ratio("IP-to-IP+FB violations vs Baseline (x, HOL)", ">1x",
          sum(IpToIpBurst, v) / vBase);
    cut("FrameBurst CPU-energy reduction (Fig 16a)", "~25",
        sum(Baseline, cpu), sum(FrameBurst, cpu));
    cut("FrameBurst instruction reduction (Fig 16a)", "~40",
        sum(Baseline, ins), sum(FrameBurst, ins));
    ratio("VIP interrupt rate vs Baseline (x)", "<<1x",
          sum(VIP, irq) / std::max(sum(Baseline, irq), 1e-9));
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (const char *extra = parseBenchArgs(argc, argv))
            fatal("unknown argument '", extra, "'");
        const double seconds = simSeconds(0.4);
        Matrix m;
        selectStatsCells(m);
        runAll(m, seconds);
        printFig15(m);
        printFig16(m);
        printFig17(m);
        printFig18(m);
        printHeadline(m);
        for (const Cell &cell : m.cells) {
            if (!cell.statsPath.empty())
                std::printf("stats: %s (%zu stats)\n",
                            cell.statsPath.c_str(), cell.statCount);
        }
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
