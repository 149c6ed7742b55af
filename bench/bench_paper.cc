/**
 * @file
 * The whole paper in one run.  Every distinct (SocConfig, Workload)
 * cell that a figure reads is simulated once, on every hardware
 * thread, and Figs 2, 3, 5, 6 and 14-18 and the headline table are
 * printed from those runs:
 *
 *  - the 75 cells of kAllConfigs x evaluationMatrix() (Figs 15-18,
 *    the headline table, and Fig 14a's 2 KB point, which is the
 *    matrix's VIP x W1 cell);
 *  - Figs 2-3's nine motivation cells: 1..4 Grafika players at 24
 *    and 60 FPS on the memory-bound Baseline platform, plus four
 *    players on ideal memory;
 *  - Fig 14a's six other lane sizes.
 *
 * Figs 5, 6 and 14b sample models and simulate nothing.  Runs share
 * no state (Isolation.ConcurrentThreadsMatchSoloRunsBitForBit) and
 * nothing is printed before the last cell finishes, so the thread
 * count never reaches the output.  --audit applies to every cell;
 * --stats-dir writes the stats.json of the matrix's --stats-workloads
 * columns from the same runs.
 */

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <map>
#include <span>
#include <thread>

#include "app/user_input.hh"
#include "bench_util.hh"
#include "power/sram_model.hh"

namespace
{

using namespace vip;
using namespace vip::bench;
using enum SystemConfig;

/** One simulated (SocConfig, Workload) run. */
struct Cell
{
    SocConfig cfg;
    Workload wl;
    std::string statsPath{}; ///< set: write the run's stats.json here
    std::size_t statCount = 0;
    RunStats stats{};
    /** Fig 3d: share of DRAM bandwidth samples per 10%-of-peak bin,
     *  which RunStats does not carry. */
    std::vector<double> bwFractions{};
    std::exception_ptr error{};
};

/** Figs 2-3 run 1..kMaxPlayers concurrent players. */
constexpr int kMaxPlayers = 4;

/** Fig 14a's per-lane buffer sizes. */
constexpr std::uint32_t kLaneBytes[] = {512, 1024, 2048, 4096, 8192,
                                        16384};

/** @p n concurrent 4K Grafika players at @p fps. */
Workload
grafikaPlayers(int n, double fps)
{
    Workload w;
    w.name = std::to_string(n) + "app";
    w.useCase = "concurrent Grafika video playback";
    for (int i = 0; i < n; ++i) {
        auto app = AppCatalog::grafikaPlayer(
            resolutions::r4k, fps, "Grafika" + std::to_string(i));
        for (auto &f : app.flows)
            f.name.append("#").append(std::to_string(i));
        w.apps.push_back(std::move(app));
    }
    return w;
}

/**
 * The motivation platform: IPs fast enough that *memory* is the
 * binding constraint (the paper's point in Fig 3) -- with ideal
 * memory even 4 concurrent players fit their deadline.
 */
SocConfig
motivationConfig()
{
    SocConfig cfg;
    cfg.system = Baseline;
    auto fast = [&cfg](IpKind k, double bpc) {
        IpParams p = defaultIpParams(k);
        p.bytesPerCycle = bpc;
        cfg.ipOverrides[k] = p;
    };
    fast(IpKind::VD, 14.0);  // ~9.8 GB/s
    fast(IpKind::GPU, 20.0); // ~10.4 GB/s
    fast(IpKind::DC, 25.0);  // ~10.0 GB/s
    return cfg;
}

/**
 * The cell store: every distinct cell a figure reads, each once.
 * The evaluation matrix comes first, kAllConfigs-major over its
 * columns; the figures below it hold indices into cells.
 */
struct Paper
{
    std::vector<Workload> wls = evaluationMatrix();
    std::vector<Cell> cells;
    /** Figs 2-3: [n - 1] runs n players at 24 or 60 FPS. */
    std::size_t players24[kMaxPlayers];
    std::size_t players60[kMaxPlayers];
    /** Figs 3a/3b's reference: kMaxPlayers at 60 FPS, ideal memory. */
    std::size_t idealMemory;
    /** Fig 14a: VIP x W1 at each of kLaneBytes, and at an
     *  effectively unbounded 1 MiB. */
    std::size_t lanes[std::size(kLaneBytes)];
    std::size_t idealLane;

    explicit Paper(double seconds)
    {
        auto add = [this, seconds](SocConfig cfg, Workload wl) {
            cfg.simSeconds = seconds;
            cells.push_back({std::move(cfg), std::move(wl)});
            return cells.size() - 1;
        };
        for (SystemConfig c : kAllConfigs) {
            for (const Workload &w : wls) {
                SocConfig cfg;
                cfg.system = c;
                add(cfg, w);
            }
        }

        for (int n = 1; n <= kMaxPlayers; ++n) {
            players24[n - 1] =
                add(motivationConfig(), grafikaPlayers(n, 24.0));
            players60[n - 1] =
                add(motivationConfig(), grafikaPlayers(n, 60.0));
        }
        SocConfig ideal = motivationConfig();
        ideal.dram.ideal = true;
        idealMemory = add(ideal, grafikaPlayers(kMaxPlayers, 60.0));

        // VIP x W1 (two 4K players), a sub-frame at most half a lane.
        // SocConfig's default lane is one of the sizes, so that point
        // is the matrix's own cell.
        const std::size_t w1 =
            std::ranges::find(wls, "W1", &Workload::name) - wls.begin();
        const SocConfig defaults;
        auto lane = [&](std::uint32_t bytes) {
            SocConfig cfg;
            cfg.system = VIP;
            cfg.laneBytes = bytes;
            cfg.subframeBytes = std::min(bytes / 2, 1024u);
            if (cfg.laneBytes == defaults.laneBytes &&
                cfg.subframeBytes == defaults.subframeBytes)
                return matrixIndex(VIP, w1);
            return add(cfg, wls[w1]);
        };
        for (std::size_t i = 0; i < std::size(kLaneBytes); ++i)
            lanes[i] = lane(kLaneBytes[i]);
        idealLane = lane(1_MiB);
    }

    std::size_t
    matrixIndex(SystemConfig c, std::size_t w) const
    {
        const std::size_t k = std::ranges::find(kAllConfigs, c) - kAllConfigs;
        return k * wls.size() + w;
    }

    const RunStats &
    at(SystemConfig c, std::size_t w) const
    {
        return cells[matrixIndex(c, w)].stats;
    }

    std::span<Cell>
    matrix()
    {
        return {cells.data(), std::size(kAllConfigs) * wls.size()};
    }
};

/**
 * Give the matrix cells of the --stats-workloads columns their
 * <statsDir()>/<config>-<workload>.stats.json path, the files the CI
 * perf-regression gate diffs against bench/baseline/.  CLI-style
 * config names keep them shell-safe ("IP-to-IP+FB" would glob badly).
 */
void
selectStatsCells(Paper &p)
{
    if (statsDir().empty())
        return;
    for (const std::string &name : statsWorkloads()) {
        const std::string column = WorkloadCatalog::byName(name).name;
        bool found = false;
        for (Cell &cell : p.matrix()) {
            if (cell.wl.name != column)
                continue;
            cell.statsPath = statsDir() + "/" +
                             systemConfigCliName(cell.cfg.system) + "-" +
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
runAll(Paper &p)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&p, &next] {
        for (std::size_t i; (i = next++) < p.cells.size();) {
            Cell &cell = p.cells[i];
            auto done = [&cell](Simulation &sim) {
                const auto &h = sim.memory().bwHistogram();
                for (std::size_t b = 0; b < h.numBins(); ++b)
                    cell.bwFractions.push_back(h.binFraction(b));
                if (cell.statsPath.empty())
                    return;
                std::ofstream out(cell.statsPath);
                sim.writeStatsJson(out);
                if (!out)
                    fatal("cannot write ", cell.statsPath);
                cell.statCount = sim.statsRegistry().size();
            };
            try {
                cell.stats = runCell(cell.cfg, cell.wl, done);
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
    for (const Cell &cell : p.cells) {
        if (cell.error)
            std::rethrow_exception(cell.error);
    }
}

/**
 * Fig 2a: total CPU active time (ms, all cores) to display one frame
 * at 24 and 60 FPS, plus energy per frame.  Fig 2b: CPU interrupts
 * (normalized to one app) and the achieved FPS.
 */
void
printFig02(const Paper &p)
{
    banner("Figure 2: CPU cost of per-frame orchestration (Baseline)",
           "Fig 2a (CPU time & energy/frame) and Fig 2b (interrupts)");

    std::printf("%-6s | %12s %12s | %12s | %12s %8s\n", "apps",
                "cpuMs/frame", "cpuMs/frame", "mJ/frame",
                "interrupts", "FPS");
    std::printf("%-6s | %12s %12s | %12s | %12s %8s\n", "",
                "(24-FPS)", "(60-FPS)", "(60-FPS)", "(norm, 60)", "");

    const double irq1 =
        static_cast<double>(p.cells[p.players60[0]].stats.interrupts);
    for (int n = 1; n <= kMaxPlayers; ++n) {
        const RunStats &s24 = p.cells[p.players24[n - 1]].stats;
        const RunStats &s60 = p.cells[p.players60[n - 1]].stats;
        std::printf("%-6d | %12.2f %12.2f | %12.2f | %12.2f %8.1f\n",
                    n, s24.cpuActiveMsPerFrame,
                    s60.cpuActiveMsPerFrame, s60.energyPerFrameMj,
                    normalized(static_cast<double>(s60.interrupts),
                               irq1),
                    s60.achievedFps);
    }
    std::printf("\nPaper shape: CPU time per frame and interrupts grow"
                " with the app count\n(~3x interrupts at 4 apps); "
                "achieved FPS degrades.\n");
}

/** VD active time per frame across @p n players. */
double
vdActiveMsPerFrame(const RunStats &s, int n)
{
    const auto *vd = s.ip("VD");
    return vd ? vd->activeMs /
                    std::max<double>(1.0, double(s.framesCompleted)) * n
              : 0.0;
}

/**
 * Memory as the bottleneck with the 60-FPS players of Fig 2.  Fig 3a:
 * video-decoder active time per frame, with the ideal-memory
 * reference; Fig 3b: IP utilization; Fig 3c: average memory
 * bandwidth; Fig 3d: time spent at each bandwidth level.
 */
void
printFig03(const Paper &p)
{
    banner("Figure 3: memory-system bottleneck (Baseline, n players)",
           "Figs 3a-3d");

    std::printf("%-10s | %10s %8s | %8s %8s | %10s %10s\n", "apps",
                "VDact ms", "VDutil", "DCutil", "rowHit%",
                "avgBW GB/s", ">80% time");
    for (int n = 1; n <= kMaxPlayers; ++n) {
        const RunStats &s = p.cells[p.players60[n - 1]].stats;
        const auto *vd = s.ip("VD");
        const auto *dc = s.ip("DC");
        std::printf("%-10d | %10.2f %8.2f | %8.2f %8.1f | %10.2f"
                    " %10.2f\n",
                    n, vdActiveMsPerFrame(s, n),
                    vd ? vd->utilization : 0.0,
                    dc ? dc->utilization : 0.0,
                    s.memRowHitRate * 100.0, s.avgMemBandwidthGBps,
                    s.fracTimeAbove80PctBw);
    }
    // The Fig 3a/3b "Ideal" reference: zero-latency,
    // infinite-bandwidth memory.
    const RunStats &ideal = p.cells[p.idealMemory].stats;
    const auto *vd = ideal.ip("VD");
    std::printf("%-10s | %10.2f %8.2f | %8s %8s | %10s %10s\n",
                "Ideal(4)", vdActiveMsPerFrame(ideal, kMaxPlayers),
                vd ? vd->utilization : 0.0, "-", "-", "-", "-");

    std::printf("\nFig 3d: time-at-bandwidth distribution "
                "(%% of samples per %%-of-peak bin)\n%-10s",
                "apps");
    for (int b = 0; b < 10; ++b)
        std::printf(" %5d-%-3d", b * 10, (b + 1) * 10);
    std::printf("\n");
    for (int n = 1; n <= kMaxPlayers; ++n) {
        std::printf("%-10d", n);
        for (double f : p.cells[p.players60[n - 1]].bwFractions)
            std::printf(" %8.1f%%", f * 100.0);
        std::printf("\n");
    }

    std::printf("\nPaper shape: utilization collapses and bandwidth "
                "approaches peak as apps\nare added; ideal memory "
                "restores ~100%% utilization (Fig 3b).\n");
}

/** FlappyBird's tap intervals, sampled from the encoded 20-user
 *  study model that drives the game burst policy. */
void
printFig05()
{
    banner("Figure 5: FlappyBird tap-interval distribution",
           "Fig 5 (percentage of taps per interval bin)");

    FlappyTapModel model;
    Random rng(1);
    const int n = 200000;

    // The paper's histogram: 0.05 s bins from <0.15 to 1.25+, plus a
    // long tail.
    constexpr int bins = 23;
    std::vector<int> hist(bins + 1, 0);
    double above_half = 0, min_gap = 1e9;
    for (int i = 0; i < n; ++i) {
        double gap = toSec(model.nextGap(rng));
        min_gap = std::min(min_gap, gap);
        if (gap > 0.5)
            ++above_half;
        int b = static_cast<int>((gap - 0.10) / 0.05);
        if (b < 0)
            b = 0;
        if (b > bins)
            b = bins;
        ++hist[b];
    }

    std::printf("%-12s %10s\n", "interval(s)", "% of taps");
    for (int b = 0; b <= bins; ++b) {
        double lo = 0.10 + 0.05 * b;
        char label[32];
        if (b == 0)
            std::snprintf(label, sizeof label, "<0.15");
        else if (b == bins)
            std::snprintf(label, sizeof label, ">%.2f", lo);
        else
            std::snprintf(label, sizeof label, "%.2f", lo + 0.05);
        std::printf("%-12s %9.2f%%  %s\n", label,
                    100.0 * hist[b] / n,
                    std::string(static_cast<std::size_t>(
                        300.0 * hist[b] / n), '#')
                        .c_str());
    }
    std::printf("\nminimum gap: %.3f s  (paper: rapid taps >= 0.15 s"
                " apart)\n", min_gap);
    std::printf("gaps > 0.5 s: %.1f%%  (paper: >60%%)\n",
                100.0 * above_half / n);
    std::printf("mean gap: %.3f s -> ~%.0f frames of burst headroom"
                " at 60 FPS\n", model.distribution().mean(),
                model.distribution().mean() * 60.0);
}

/**
 * FruitNinja flicks.  Fig 6a: the fraction of frames that can / cannot
 * be frame-burst (frames inside a flick cannot); Fig 6b: the maximum
 * number of frames available to one burst between flicks (60 FPS).
 */
void
printFig06()
{
    banner("Figure 6: FruitNinja flick gaps and burstable frames",
           "Fig 6a (burstable fraction) and Fig 6b (burst sizes)");

    FruitFlickModel model;
    Random rng(1);
    const int sessions = 100000;

    double burstable_time = 0.0, flick_time = 0.0;
    std::map<int, int> burstHist; // 3-frame buckets
    std::uint64_t gaps_over_1s = 0, gaps_over_2s = 0;

    for (int i = 0; i < sessions; ++i) {
        double gap = toSec(model.nextGap(rng));
        double flick = toSec(model.inputDuration(rng));
        burstable_time += gap;
        flick_time += flick;
        int frames = static_cast<int>(gap * 60.0);
        burstHist[frames / 3 * 3] += 1;
        if (gap > 1.0)
            ++gaps_over_1s;
        if (gap > 2.0)
            ++gaps_over_2s;
    }

    double total = burstable_time + flick_time;
    std::printf("Fig 6a: %% of frames that CAN frame-burst:    %5.1f%%"
                "  (paper: ~60%%)\n",
                100.0 * burstable_time / total);
    std::printf("        %% of frames that CANNOT frame-burst: %5.1f%%"
                "  (paper: ~40%%)\n\n",
                100.0 * flick_time / total);

    std::printf("Fig 6b: max frames available per burst (3-frame"
                " buckets)\n%-12s %10s\n", "frames", "% of gaps");
    int shown = 0;
    for (const auto &[bucket, count] : burstHist) {
        double pct = 100.0 * count / sessions;
        if (pct < 0.3 && shown > 12)
            continue;
        std::printf("%3d-%-8d %9.2f%%  %s\n", bucket, bucket + 3, pct,
                    std::string(static_cast<std::size_t>(pct * 3),
                                '#')
                        .c_str());
        ++shown;
    }
    std::printf("\ngaps > 1 s (60+ frames): %.1f%%   gaps > 2 s: "
                "%.1f%%\n",
                100.0 * gaps_over_1s / sessions,
                100.0 * gaps_over_2s / sessions);
    std::printf("Paper shape: long-tailed distribution, e.g. ~7%% of"
                " burstable periods allow\n27-30 frame bursts; tails"
                " past 200 frames exist.\n");
}

/**
 * Sizing the per-lane flow buffers.  Fig 14a: per-frame flow time,
 * normalized to an effectively unbounded buffer, as the lane shrinks
 * from 16 KB to 0.5 KB.  Fig 14b: CACTI-style read energy and area
 * for 0.5 KB .. 64 KB buffers (the analytical SramModel).
 */
void
printFig14(const Paper &p)
{
    banner("Figure 14: flow-buffer sizing", "Figs 14a and 14b");

    const double ideal = p.cells[p.idealLane].stats.meanFlowTimeMs;
    std::printf("Fig 14a: normalized flow time vs per-lane buffer"
                " (ideal = %.3f ms)\n", ideal);
    std::printf("%-10s %12s %14s\n", "buffer", "flowTimeMs",
                "norm vs ideal");
    for (std::size_t i = 0; i < std::size(kLaneBytes); ++i) {
        const double t = p.cells[p.lanes[i]].stats.meanFlowTimeMs;
        std::printf("%6.1fKB %12.3f %14.3f\n", kLaneBytes[i] / 1024.0,
                    t, normalized(t, ideal));
    }
    std::printf("%-10s %12.3f %14.3f\n", "Ideal", ideal, 1.0);
    std::printf("\nPaper shape: <= ~1.08x at 0.5 KB, converging to"
                " 1.0 by a few KB;\nthe paper picks 2 KB (32 cache"
                " lines) per lane.\n\n");

    std::printf("Fig 14b: buffer read energy and area (SramModel,"
                " CACTI stand-in)\n");
    std::printf("%-10s %16s %12s %14s\n", "buffer", "readEnergy(nJ)",
                "area(mm^2)", "leakage(mW)");
    for (std::uint64_t kb = 1; kb <= 128; kb *= 2) {
        std::uint64_t bytes = kb * 512; // 0.5K, 1K, ... 64K
        auto est = SramModel::forCapacity(bytes);
        std::printf("%6.1fKB %16.4f %12.4f %14.3f\n", bytes / 1024.0,
                    est.readEnergyNj, est.areaMm2,
                    est.leakageWatts * 1e3);
    }
    std::printf("\nPaper shape: ~0.065 nJ and ~0.35 mm^2 at 64 KB,"
                " tiny at 0.5 KB.\n");
}

/** A header, then one row per configuration of @p value(c, column). */
template <typename F>
void
printTable(const Paper &p, std::span<const SystemConfig> configs,
           F value)
{
    printHeader("config", p.wls);
    for (SystemConfig c : configs) {
        std::vector<double> row;
        for (std::size_t w = 0; w < p.wls.size(); ++w)
            row.push_back(value(c, w));
        printRow(systemConfigName(c), row);
    }
}

/** @p field of each configuration, normalized to Baseline's. */
void
printNormalized(const Paper &p, std::span<const SystemConfig> configs,
                double RunStats::*field)
{
    printTable(p, configs, [&p, field](SystemConfig c, std::size_t w) {
        return normalized(p.at(c, w).*field, p.at(Baseline, w).*field);
    });
}

void
printFig15(const Paper &p)
{
    banner("Figure 15: energy per frame, normalized to Baseline",
           "Fig 15 (5 configurations x A1..A7, W1..W8, AVG)");
    printNormalized(p, kAllConfigs, &RunStats::energyPerFrameMj);

    std::printf("\nPaper shape: FrameBurst ~0.9x, IP-to-IP family"
                " substantially lower, VIP lowest\n(~22%% below"
                " IP-to-IP on average; ~38%% below Baseline).\n");
    // The sentence above is the paper's; this line is the run's own
    // AVG column, so a reader sees where the two part.
    auto avg = [&p](SystemConfig c) {
        std::vector<double> row;
        for (std::size_t w = 0; w < p.wls.size(); ++w)
            row.push_back(normalized(p.at(c, w).energyPerFrameMj,
                                     p.at(Baseline, w).energyPerFrameMj));
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
printFig16(const Paper &p)
{
    banner("Figure 16: CPU energy / instruction / interrupt savings "
           "from frame bursts",
           "Figs 16a and 16b");
    // Percent reduction of FrameBurst against Baseline.
    auto saving = [&p]<typename T>(T RunStats::*field) {
        std::vector<double> row;
        for (std::size_t w = 0; w < p.wls.size(); ++w) {
            row.push_back(100.0 * (1.0 - normalized(
                double(p.at(FrameBurst, w).*field),
                double(p.at(Baseline, w).*field))));
        }
        return row;
    };

    std::printf("Fig 16a:\n");
    printHeader("metric", p.wls);
    printRow("%cpuEnergyRed", saving(&RunStats::cpuEnergyMj));
    printRow("%instrRed", saving(&RunStats::instructions));

    std::printf("\nFig 16b: interrupts per 100 ms\n");
    const SystemConfig shown[] = {Baseline, FrameBurst};
    printTable(p, shown, [&p](SystemConfig c, std::size_t w) {
        return p.at(c, w).interruptsPer100ms;
    });

    std::printf("\nPaper shape: ~25%% average CPU-energy reduction,"
                " ~40%% fewer instructions,\nand an order-of-"
                "magnitude interrupt reduction.\n");
}

void
printFig17(const Paper &p)
{
    banner("Figure 17: flow time per frame, normalized to Baseline",
           "Fig 17 (Baseline / FrameBurst / IP-to-IP+FB / VIP)");
    const SystemConfig shown[] = {Baseline, FrameBurst, IpToIpBurst, VIP};

    std::printf("(a) latency from nominal frame generation\n");
    printNormalized(p, shown, &RunStats::meanFlowTimeMs);
    std::printf("\n(b) pipeline transit (first stage -> sink,"
                " queueing included)\n");
    printNormalized(p, shown, &RunStats::meanTransitMs);

    std::printf("\nPaper shape: IP-to-IP cuts flow time sharply (no"
                " DRAM staging); bursts help\nfurther on single-app"
                " columns; VIP gives up a little vs the burst mode"
                "\n(context switching) but never the QoS.\n");
}

/** A column whose Baseline misses no frame (the paper's device always
 *  does; our window may not) is normalized to a one-frame floor. */
void
printFig18(const Paper &p)
{
    banner("Figure 18: QoS violations, normalized to Baseline",
           "Fig 18 (5 configurations x A1..A7, W1..W8, AVG)");
    auto violations = [&p](SystemConfig c, std::size_t w) {
        return static_cast<double>(p.at(c, w).violations);
    };

    std::printf("Absolute QoS violations (frames past deadline)\n");
    printTable(p, kAllConfigs, violations);

    std::printf("\nNormalized to Baseline (floor of 1 frame guards"
                " zero-violation columns)\n");
    printTable(p, kAllConfigs, [&](SystemConfig c, std::size_t w) {
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
printHeadline(const Paper &p)
{
    banner("Headline summary: paper claims vs this reproduction",
           "abstract + Section 6.2 + conclusion");
    auto sum = [&p]<typename T>(SystemConfig c, T RunStats::*field) {
        double s = 0;
        for (std::size_t w = 0; w < p.wls.size(); ++w) {
            if (p.wls[w].name[0] == 'W')
                s += double(p.at(c, w).*field);
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
        Paper p(simSeconds(0.4));
        selectStatsCells(p);
        runAll(p);
        printFig02(p);
        printFig03(p);
        printFig05();
        printFig06();
        printFig14(p);
        printFig15(p);
        printFig16(p);
        printFig17(p);
        printFig18(p);
        printHeadline(p);
        for (const Cell &cell : p.cells) {
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
