/**
 * @file
 * vip_top: live terminal dashboard over a fleet's journal and the
 * simulator's metrics CSV.
 *
 * Two sources, one renderer:
 *
 *   vip_top <fleet-out-dir>          jobs by state, per-shard
 *                                    throughput sparklines,
 *                                    steady/transient flags, ETA
 *                                    (folds <dir>/journal.jsonl, the
 *                                    same fold report.json is)
 *   vip_top --metrics metrics.csv    sparklines of a metrics CSV's
 *                                    most active columns (per-row
 *                                    deltas for counters)
 *
 * --watch re-renders every --interval seconds (ANSI clear); in fleet
 * mode it exits on its own once the journal records sweep_end.  A
 * sweep that was killed stays readable: its journal holds every
 * record up to the kill.  A one-shot render of the same input is
 * deterministic.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/journal.hh"
#include "sim/logging.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: vip_top [--watch] [--interval <s>] <fleet-out-dir>\n"
        "       vip_top [--watch] [--interval <s>] --metrics <file>\n"
        "\n"
        "  Render a terminal dashboard from a fleet's journal.jsonl\n"
        "  or a vip_sim --metrics-out CSV stream.\n"
        "\n"
        "  --watch          re-render until interrupted (fleet mode\n"
        "                   exits once the sweep has ended)\n"
        "  --interval <s>   refresh period (default 1)\n"
        "  --rows <n>       metrics rows to chart (default 60)\n");
}

/** ASCII sparkline: one glyph per value, darker = larger. */
std::string
sparkline(const std::vector<double> &vals)
{
    static const char ramp[] = " .:-=+*#%@";
    constexpr int kLevels = static_cast<int>(sizeof(ramp)) - 2;
    if (vals.empty())
        return "";
    double lo = vals[0], hi = vals[0];
    for (double v : vals) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::string out;
    out.reserve(vals.size());
    for (double v : vals) {
        int lvl = hi > lo ? static_cast<int>(std::lround(
                                (v - lo) / (hi - lo) * kLevels))
                          : 0;
        lvl = std::clamp(lvl, 0, kLevels);
        out.push_back(ramp[lvl]);
    }
    return out;
}

/** Keep at most @p n values, evenly subsampled, newest kept. */
std::vector<double>
thin(const std::vector<double> &v, std::size_t n)
{
    if (v.size() <= n)
        return v;
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(v[i * (v.size() - 1) / (n - 1)]);
    return out;
}

std::string
fmtMs(double ms)
{
    char buf[64];
    if (ms < 0.0)
        return "?";
    if (ms >= 60000.0)
        std::snprintf(buf, sizeof(buf), "%.1f min", ms / 60000.0);
    else if (ms >= 1000.0)
        std::snprintf(buf, sizeof(buf), "%.1f s", ms / 1000.0);
    else
        std::snprintf(buf, sizeof(buf), "%.0f ms", ms);
    return buf;
}

/** @return true once the journal records the sweep's end. */
bool
renderFleet(const std::string &dir)
{
    using vip::fleet::FoldedJob;
    using vip::fleet::JobState;
    const std::string path = dir + "/journal.jsonl";
    std::ifstream in(path);
    if (!in) {
        std::printf("waiting for %s ...\n", path.c_str());
        return false;
    }
    const vip::fleet::FoldedSweep s = vip::fleet::foldJournal(in);
    std::printf("sweep %s  %s  wall %s\n", s.name.c_str(),
                s.ended ? "[final]" : "[running]",
                fmtMs(s.wallMs).c_str());

    // Per-job simulated progress: a running job's newest heartbeat
    // tick, a done job's full target, otherwise zero.  The ETA runs
    // on the running jobs' newest rates; failed jobs are out of the
    // race, so their remaining sim time does not count.
    const double targetMs = s.seconds * 1000.0;
    auto simMs = [targetMs](const FoldedJob &j) {
        return j.state == JobState::Done      ? targetMs
               : j.state == JobState::Running ? std::max(0.0, j.tickMs)
                                              : 0.0;
    };
    std::size_t count[5] = {}; // by JobState, in declaration order
    double simDone = 0.0, rate = 0.0;
    for (const FoldedJob &j : s.jobs) {
        ++count[static_cast<int>(j.state)];
        simDone += simMs(j);
        if (j.state == JobState::Running && !j.rates.empty())
            rate += j.rates.back();
    }
    const double remaining =
        targetMs * static_cast<double>(s.jobs.size() - s.failed) -
        simDone;
    const double etaMs = remaining <= 0.0 ? 0.0
                         : rate > 0.0     ? remaining / rate * 1000.0
                                          : -1.0;
    std::printf("jobs : %zu total | %zu pending, %zu running, "
                "%zu backoff, %zu done, %zu failed\n",
                s.jobs.size(), count[0], count[1], count[2], count[3],
                count[4]);
    std::printf("sim  : %.0f of %.0f ms done | %.0f sim ms per wall s "
                "| ETA %s\n",
                simDone, targetMs * static_cast<double>(s.jobs.size()),
                rate, fmtMs(etaMs).c_str());

    std::printf("%-14s %-8s %3s %9s  %-16s %s\n", "job", "state", "try",
                "sim_ms", "rate window", "steady");
    for (const FoldedJob &j : s.jobs) {
        // A committed shard reports the tick its own detector
        // latched; otherwise the newest attempt is judged on the
        // spread of its rate window.
        std::string steady;
        if (j.steadyTickMs >= 0.0) {
            steady = "steady@" + fmtMs(j.steadyTickMs);
        } else if (!j.rates.empty()) {
            const auto [lo, hi] =
                std::minmax_element(j.rates.begin(), j.rates.end());
            double mean = 0.0;
            for (double v : j.rates)
                mean += v / static_cast<double>(j.rates.size());
            steady = j.rates.size() >= 8 && mean > 0.0 &&
                             *hi - *lo <= 0.5 * mean
                         ? "steady"
                         : "transient";
        }
        std::printf("%-14s %-8s %3d %9.1f  %-16s %s\n",
                    j.job.id.c_str(), vip::fleet::jobStateName(j.state),
                    j.attempts, simMs(j), sparkline(j.rates).c_str(),
                    steady.c_str());
    }
    return s.ended;
}

void
renderMetrics(const std::string &file, std::size_t chartRows)
{
    std::ifstream in(file);
    if (!in)
        vip::fatal("cannot read ", file);
    std::string line;
    std::vector<std::string> cols;
    std::vector<std::vector<double>> data;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::stringstream ss(line);
        std::string cell;
        if (cols.empty()) {
            while (std::getline(ss, cell, ','))
                cols.push_back(cell);
            data.resize(cols.size());
            continue;
        }
        std::size_t c = 0;
        while (std::getline(ss, cell, ',') && c < data.size())
            data[c++].push_back(std::atof(cell.c_str()));
    }
    if (cols.empty())
        vip::fatal(file, " has no header row");

    std::printf("metrics %s  %zu rows x %zu columns\n", file.c_str(),
                data.empty() ? 0 : data[0].size(), cols.size());
    // Columns that never decrease are cumulative counters: chart their
    // per-row delta (their rate, up to the constant interval), not the
    // ramp.  Gauges chart as sampled.  Then chart
    // the busiest columns (widest range of what is charted), skipping
    // the time axis itself.
    struct Chart
    {
        std::size_t col;
        const char *what;
        std::vector<double> vals;
        double lo = 0.0, hi = 0.0;
    };
    std::vector<Chart> charts;
    for (std::size_t c = 1; c < cols.size(); ++c) {
        const std::vector<double> &v = data[c];
        if (v.empty())
            continue;
        bool counter = v.size() > 1;
        for (std::size_t i = 1; counter && i < v.size(); ++i)
            counter = v[i] >= v[i - 1];
        Chart ch{c, counter ? "delta" : "value", {}};
        if (counter) {
            for (std::size_t i = 1; i < v.size(); ++i)
                ch.vals.push_back(v[i] - v[i - 1]);
        } else {
            ch.vals = v;
        }
        ch.lo = *std::min_element(ch.vals.begin(), ch.vals.end());
        ch.hi = *std::max_element(ch.vals.begin(), ch.vals.end());
        charts.push_back(std::move(ch));
    }
    std::stable_sort(charts.begin(), charts.end(),
                     [](const Chart &a, const Chart &b) {
                         return a.hi - a.lo > b.hi - b.lo;
                     });
    const std::size_t kTop = 12;
    for (std::size_t i = 0; i < charts.size() && i < kTop; ++i) {
        const Chart &ch = charts[i];
        if (ch.hi - ch.lo <= 0.0)
            break;
        std::printf("%-28s %-5s [%s] %.6g..%.6g\n",
                    cols[ch.col].c_str(), ch.what,
                    sparkline(thin(ch.vals, chartRows)).c_str(), ch.lo,
                    ch.hi);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string fleetDir, metricsFile;
    bool watch = false;
    double intervalSec = 1.0;
    long chartRows = 60;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--watch") {
            watch = true;
        } else if (arg == "--interval") {
            intervalSec = std::atof(next().c_str());
            if (!(intervalSec > 0.0))
                vip::fatal("--interval needs a positive period");
        } else if (arg == "--rows") {
            chartRows = std::atol(next().c_str());
            if (chartRows <= 0)
                vip::fatal("--rows needs a positive count");
        } else if (arg == "--metrics") {
            metricsFile = next();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "vip_top: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else if (fleetDir.empty()) {
            fleetDir = arg;
        } else {
            usage();
            return 2;
        }
    }
    if (fleetDir.empty() == metricsFile.empty()) {
        usage();
        return 2;
    }

    try {
        for (;;) {
            if (watch)
                std::printf("\033[H\033[2J");
            bool done = false;
            if (!fleetDir.empty())
                done = renderFleet(fleetDir);
            else
                renderMetrics(metricsFile,
                              static_cast<std::size_t>(chartRows));
            std::fflush(stdout);
            if (!watch || done)
                break;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(intervalSec));
        }
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "vip_top: %s\n", e.what());
        return 1;
    }
    return 0;
}
