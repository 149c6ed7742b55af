/**
 * @file
 * vip_prof: summarize a vip_sim --prof report (prof.json).
 *
 * Prints the sim-vs-wall breakdown, the top-k event kinds by
 * estimated wall cost, and a queue-pressure report derived from the
 * sampled occupancy timeline.  Output is deterministic for a given
 * input file (golden-tested), so keep formatting stable.
 *
 *   vip_prof prof.json
 *   vip_prof --top 5 prof.json
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
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
        "usage: vip_prof [--top <k>] <prof.json>\n"
        "\n"
        "  Summarize a vip_sim --prof report: sim-vs-wall breakdown,\n"
        "  top-k event kinds by estimated wall cost, and queue\n"
        "  pressure over the run.\n"
        "\n"
        "  --top <k>   kinds to list (default 10)\n");
}

struct KindRow
{
    std::string kind;
    double count = 0;
    double sampled = 0;
    double wallNs = 0;
    double estTotalNs = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string file;
    long topK = 10;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--top" || arg.rfind("--top=", 0) == 0) {
            std::string v;
            if (arg[5] == '=') {
                v = arg.substr(6);
            } else if (i + 1 < argc) {
                v = argv[++i];
            } else {
                usage();
                return 2;
            }
            topK = std::strtol(v.c_str(), nullptr, 10);
            if (topK <= 0) {
                std::fprintf(stderr,
                             "vip_prof: --top needs a positive "
                             "count, got '%s'\n", v.c_str());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "vip_prof: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else if (file.empty()) {
            file = arg;
        } else {
            usage();
            return 2;
        }
    }
    if (file.empty()) {
        usage();
        return 2;
    }

    std::ifstream in(file);
    if (!in) {
        std::fprintf(stderr, "vip_prof: cannot read %s\n",
                     file.c_str());
        return 1;
    }

    try {
        vip::json::JsonValue doc = vip::json::parse(in);
        if (vip::json::strField(doc, "kind") != "vip-prof") {
            std::fprintf(stderr,
                         "vip_prof: %s is not a vip-prof report\n",
                         file.c_str());
            return 1;
        }

        const double simMs = vip::json::numField(doc, "sim_ms");
        const double wallMs = vip::json::numField(doc, "wall_ms");
        const double events = vip::json::numField(doc, "events");
        const double sampled = vip::json::numField(doc, "sampled");
        const double every =
            vip::json::numField(doc, "sample_every");
        const double estCbMs =
            vip::json::numField(doc, "est_callback_ms");
        // 0 in reports written before the profiler netted it out.
        const double clockPairNs =
            vip::json::numField(doc, "clock_pair_ns");

        std::printf("profile     : %s\n", file.c_str());
        if (const vip::json::JsonValue *run = doc.find("run")) {
            std::string line;
            for (const auto &[k, v] : run->obj) {
                if (!line.empty())
                    line += " ";
                line += k + "=" + v.str;
            }
            std::printf("run         : %s\n", line.c_str());
        }
        std::printf("sim time    : %.3f ms\n", simMs);
        if (wallMs > 0.0) {
            std::printf("wall time   : %.3f ms (%.2fx real-time)\n",
                        wallMs, simMs / wallMs);
        } else {
            std::printf("wall time   : (not recorded)\n");
        }
        std::printf("events      : %.0f dispatched, %.0f sampled "
                    "(every %.0f)\n", events, sampled, every);
        if (wallMs > 0.0) {
            std::printf("est callback: %.3f ms (%.1f%% of wall; the "
                        "rest is the loop itself)\n", estCbMs,
                        100.0 * estCbMs / wallMs);
        } else {
            std::printf("est callback: %.3f ms\n", estCbMs);
        }
        if (clockPairNs > 0.0) {
            std::printf("clock pair  : %.1f ns per timed dispatch, "
                        "netted out of est_ms\n", clockPairNs);
        }

        // Queue pressure: maxima plus the sampled occupancy
        // timeline's shape.
        if (const vip::json::JsonValue *q = doc.find("eventq")) {
            std::printf("queue       : max %.0f pending, max %.0f "
                        "heap\n",
                        vip::json::numField(*q, "max_pending"),
                        vip::json::numField(*q, "max_heap"));
            if (const vip::json::JsonValue *tl = q->find("timeline");
                tl && !tl->arr.empty()) {
                double sumP = 0;
                for (const vip::json::JsonValue &s : tl->arr)
                    sumP += vip::json::numField(s, "pending");
                std::printf("              %zu samples (stride %.0f):"
                            " mean %.1f pending\n",
                            tl->arr.size(),
                            vip::json::numField(*q,
                                                "timeline_stride"),
                            sumP / static_cast<double>(
                                       tl->arr.size()));
            }
        }

        std::vector<KindRow> rows;
        if (const vip::json::JsonValue *kinds = doc.find("kinds")) {
            for (const vip::json::JsonValue &k : kinds->arr) {
                KindRow r;
                r.kind = vip::json::strField(k, "kind");
                r.count = vip::json::numField(k, "count");
                r.sampled = vip::json::numField(k, "sampled");
                r.wallNs = vip::json::numField(k, "wall_ns");
                r.estTotalNs =
                    vip::json::numField(k, "est_total_ns");
                rows.push_back(std::move(r));
            }
        }
        std::sort(rows.begin(), rows.end(),
                  [](const KindRow &a, const KindRow &b) {
                      if (a.estTotalNs != b.estTotalNs)
                          return a.estTotalNs > b.estTotalNs;
                      if (a.count != b.count)
                          return a.count > b.count;
                      return a.kind < b.kind;
                  });

        std::printf("\ntop kinds by estimated wall cost:\n");
        std::printf("  %4s %-12s %10s %10s %7s %9s\n", "rank",
                    "kind", "count", "est_ms", "%wall", "ns/event");
        const std::size_t shown = std::min<std::size_t>(
            rows.size(), static_cast<std::size_t>(topK));
        for (std::size_t i = 0; i < shown; ++i) {
            const KindRow &r = rows[i];
            const double estMs = r.estTotalNs / 1e6;
            const double pct =
                wallMs > 0.0 ? 100.0 * estMs / wallMs : 0.0;
            const double perEvent =
                r.count > 0 ? r.estTotalNs / r.count : 0.0;
            std::printf("  %4zu %-12s %10.0f %10.3f %6.1f%% %9.1f\n",
                        i + 1, r.kind.c_str(), r.count, estMs, pct,
                        perEvent);
        }
        if (rows.size() > shown) {
            double restMs = 0;
            for (std::size_t i = shown; i < rows.size(); ++i)
                restMs += rows[i].estTotalNs / 1e6;
            std::printf("  ...  %zu more kinds, %.3f ms\n",
                        rows.size() - shown, restMs);
        }
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "vip_prof: %s\n", e.what());
        return 1;
    }
    return 0;
}
