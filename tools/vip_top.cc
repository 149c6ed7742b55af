/**
 * @file
 * vip_top: live terminal dashboard over the fleet's status plane and
 * the simulator's metrics CSV.
 *
 * Two sources, one renderer:
 *
 *   vip_top <fleet-out-dir>          jobs by state, per-host health,
 *                                    per-shard throughput sparklines,
 *                                    steady/transient flags, ETA
 *                                    (reads <dir>/fleet-status.json)
 *   vip_top --metrics metrics.csv    sparklines of a metrics CSV's
 *                                    most active columns (per-row
 *                                    deltas for counters)
 *
 * --watch re-renders every --interval seconds (ANSI clear); in fleet
 * mode it exits on its own when the status file turns "final".  A
 * one-shot render of the same input is deterministic.
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

#include "obs/json.hh"
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
        "  Render a terminal dashboard from a fleet's rolling\n"
        "  fleet-status.json or a vip_sim --metrics-out CSV stream.\n"
        "\n"
        "  --watch          re-render until interrupted (fleet mode\n"
        "                   exits when the status file turns final)\n"
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

double
numOr(const vip::json::JsonValue &obj, const char *key, double dflt)
{
    const vip::json::JsonValue *v = obj.find(key);
    return v && v->kind == vip::json::JsonValue::Kind::Number
               ? v->num
               : dflt;
}

/** @return true when the status file says the sweep is over. */
bool
renderFleet(const std::string &dir)
{
    const std::string path = dir + "/fleet-status.json";
    std::ifstream in(path);
    if (!in) {
        std::printf("waiting for %s ...\n", path.c_str());
        return false;
    }
    vip::json::JsonValue doc = vip::json::parse(in);
    if (vip::json::strField(doc, "kind") != "vip-fleet-status")
        vip::fatal(path, " is not a vip-fleet-status file");

    const bool final =
        doc.find("final") && doc.find("final")->b;
    std::printf("sweep %s  %s  wall %s\n",
                vip::json::strField(doc, "name").c_str(),
                final ? "[final]" : "[running]",
                fmtMs(numOr(doc, "wall_ms", -1.0)).c_str());

    if (const vip::json::JsonValue *j = doc.find("jobs")) {
        std::printf("jobs : %.0f total | %.0f pending, %.0f running, "
                    "%.0f backoff, %.0f done, %.0f failed\n",
                    numOr(*j, "total", 0), numOr(*j, "pending", 0),
                    numOr(*j, "running", 0), numOr(*j, "backoff", 0),
                    numOr(*j, "done", 0), numOr(*j, "failed", 0));
    }
    if (const vip::json::JsonValue *t = doc.find("throughput")) {
        const double target =
            numOr(*t, "sim_target_ms_per_job", 0.0);
        std::printf("sim  : %.0f of %.0f ms done | %.0f sim ms per "
                    "wall s | ETA %s\n",
                    numOr(*t, "sim_ms_done", 0),
                    target * (doc.find("jobs")
                                  ? numOr(*doc.find("jobs"), "total",
                                          0)
                                  : 0),
                    numOr(*t, "sim_ms_per_wall_s", 0),
                    fmtMs(numOr(*t, "eta_ms", -1.0)).c_str());
    }

    if (const vip::json::JsonValue *jd = doc.find("job_detail")) {
        std::printf("%-14s %-8s %3s %9s  %-16s %s\n", "job", "state",
                    "try", "sim_ms", "rate window", "steady");
        for (const vip::json::JsonValue &row : jd->arr) {
            std::vector<double> w;
            if (const vip::json::JsonValue *rw =
                    row.find("rate_window")) {
                for (const vip::json::JsonValue &v : rw->arr)
                    w.push_back(v.num);
            }
            const vip::json::JsonValue *st =
                row.find("steady_tick_ms");
            const vip::json::JsonValue *rs =
                row.find("rate_steady");
            std::string steady;
            if (st)
                steady = "steady@" + fmtMs(st->num);
            else if (rs)
                steady = rs->b ? "steady" : "transient";
            std::printf("%-14s %-8s %3.0f %9.1f  %-16s %s\n",
                        vip::json::strField(row, "id").c_str(),
                        vip::json::strField(row, "state").c_str(),
                        numOr(row, "attempts", 0),
                        numOr(row, "sim_ms", 0),
                        sparkline(thin(w, 16)).c_str(),
                        steady.c_str());
        }
    }
    if (const vip::json::JsonValue *hosts = doc.find("hosts")) {
        std::printf("%-14s %-12s %4s %5s %5s\n", "host", "state",
                    "done", "quar", "opfail");
        for (const vip::json::JsonValue &h : hosts->arr) {
            std::printf("%-14s %-12s %4.0f %5.0f %5.0f\n",
                        vip::json::strField(h, "name").c_str(),
                        vip::json::strField(h, "state").c_str(),
                        numOr(h, "jobs_done", 0),
                        numOr(h, "quarantines", 0),
                        numOr(h, "op_failures", 0));
        }
    }
    return final;
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
