/**
 * @file
 * vip_trace: validate and analyze trace_event JSON from vip_sim.
 *
 *   vip_trace --check run.json          structural validation
 *   vip_trace --summary run.json        latency-breakdown summary
 *   vip_trace --summary crash-bundle/   postmortem: crash reason,
 *                                       counter snapshot, trace tail
 *   vip_trace --summary --stats s.json run.json   add the counter
 *                                       snapshot from a stats dump
 *   vip_trace --list-frames run.json    every frame lifecycle
 *   vip_trace --frame 0:12 run.json     one frame in depth: its
 *                                       lifecycle marks, per-stage
 *                                       compute, and the top stall
 *                                       contributors in its window
 *
 * A positional argument naming a directory is treated as a crash
 * bundle from --postmortem-dir: the trace is read from its
 * trace-tail.json, and --summary also prints crash.json and the
 * stats.json counter snapshot.  A *fleet shard* directory
 * (<out>/shards/<job>/, which stages attempts under a<attempt>/) also
 * works: the newest attempt's pm/ bundle is surfaced, with the
 * shard's committed stats.json preferred over the attempt snapshot.
 *
 * Exit codes: 0 ok, 1 validation errors / frame not found, 2 usage
 * or unparseable input.
 */

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "obs/json.hh"
#include "obs/stats_io.hh"
#include "obs/trace_check.hh"
#include "sim/logging.hh"

namespace
{

void
usage()
{
    std::printf(
        "usage: vip_trace <mode> <trace.json | crash-bundle-dir>\n"
        "  --check              validate span nesting/async pairing\n"
        "  --summary            latency breakdown from spans; for a\n"
        "                       crash bundle also the crash reason and\n"
        "                       the counter snapshot\n"
        "  --stats <file>       with --summary: print this stats.json\n"
        "                       counter snapshot too\n"
        "  --list-frames        list reconstructed frame lifecycles\n"
        "  --frame <flow>:<k>   one frame: lifecycle, per-stage\n"
        "                       compute, top stall contributors\n");
}

double
ms(std::uint64_t ticks)
{
    return static_cast<double>(ticks) / 1e9;
}

/** A reconstructed span: X events and matched B/E pairs. */
struct Span
{
    long long tid = 0;
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int64_t flow = -1;
    std::int64_t frame = -1;
};

std::vector<Span>
collectSpans(const vip::TraceFile &f)
{
    std::vector<Span> out;
    std::map<long long, std::vector<const vip::TraceEventView *>> open;
    for (const auto &e : f.events) {
        if (e.ph == "X") {
            Span s;
            s.tid = e.tid;
            s.name = e.name;
            s.start = e.tickArg("tick");
            s.end = s.start + e.tickArg("durTicks");
            auto fl = e.numArgs.find("flow");
            auto fr = e.numArgs.find("frame");
            if (fl != e.numArgs.end())
                s.flow = static_cast<std::int64_t>(fl->second);
            if (fr != e.numArgs.end())
                s.frame = static_cast<std::int64_t>(fr->second);
            out.push_back(std::move(s));
        } else if (e.ph == "B") {
            open[e.tid].push_back(&e);
        } else if (e.ph == "E") {
            auto &st = open[e.tid];
            if (!st.empty()) {
                const auto *b = st.back();
                st.pop_back();
                out.push_back(Span{e.tid, b->name, b->tickArg("tick"),
                                   e.tickArg("tick"), -1, -1});
            }
        }
    }
    return out;
}

std::string
trackName(const vip::TraceFile &f, long long tid)
{
    auto it = f.threadNames.find(tid);
    return it == f.threadNames.end() ? std::to_string(tid)
                                     : it->second;
}

int
doCheck(const vip::TraceFile &f)
{
    auto r = vip::checkTrace(f);
    std::printf("%zu events: %zu spans (%zu open at EOF), %zu "
                "instants, %zu counters, %zu async open\n",
                r.events, r.spans, r.openAtEof, r.instants,
                r.counters, r.asyncOpen);
    if (f.droppedEvents > 0) {
        std::printf("note: %llu events dropped by the ring buffer; "
                    "unmatched ends are not errors\n",
                    static_cast<unsigned long long>(f.droppedEvents));
    }
    for (const auto &e : r.errors)
        std::printf("error: %s\n", e.c_str());
    if (r.ok)
        std::printf("OK\n");
    else
        std::printf("FAILED (%zu errors)\n", r.errors.size());
    return r.ok ? 0 : 1;
}

int
doSummary(const vip::TraceFile &f)
{
    for (const auto &[k, v] : f.otherData)
        std::printf("# %s = %s\n", k.c_str(), v.c_str());

    auto frames = vip::frameLifecycles(f);
    std::uint64_t done = 0, misses = 0;
    double sum = 0, mx = 0;
    for (const auto &fr : frames) {
        if (!fr.complete)
            continue;
        ++done;
        double l = ms(fr.endToEndTicks());
        sum += l;
        mx = std::max(mx, l);
        if (fr.deadlineTick && fr.endTick > fr.deadlineTick)
            ++misses;
    }
    std::printf("frames      : %zu lifecycles, %llu complete, %llu "
                "deadline misses\n",
                frames.size(),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(misses));
    if (done > 0) {
        std::printf("e2e latency : %.3f ms mean, %.3f ms max (from "
                    "spans alone)\n",
                    sum / static_cast<double>(done), mx);
    }

    // Per-stage announce -> done, averaged over frames.
    std::map<std::string, std::pair<double, std::uint64_t>> stages;
    for (const auto &fr : frames) {
        std::map<std::string, std::uint64_t> announce;
        for (const auto &[tick, nm] : fr.stageMarks) {
            auto sep = nm.rfind(':');
            if (sep == std::string::npos)
                continue;
            std::string stage = nm.substr(0, sep);
            std::string what = nm.substr(sep + 1);
            if (what == "announce") {
                if (!announce.count(stage))
                    announce[stage] = tick;
            } else if (what == "done" && announce.count(stage)) {
                auto &agg = stages[stage];
                agg.first += ms(tick - announce[stage]);
                ++agg.second;
            }
        }
    }
    if (!stages.empty()) {
        std::printf("per-stage announce->done (mean ms):\n");
        for (const auto &[stage, agg] : stages) {
            std::printf("  %-5s %8.3f  (n=%llu)\n", stage.c_str(),
                        agg.first / static_cast<double>(agg.second),
                        static_cast<unsigned long long>(agg.second));
        }
    }

    // Engine-state occupancy per track.
    std::map<std::string, std::map<std::string, double>> engines;
    for (const auto &s : collectSpans(f)) {
        std::string trk = trackName(f, s.tid);
        if (trk.size() > 7 &&
            trk.compare(trk.size() - 7, 7, ".engine") == 0)
            engines[trk][s.name] += ms(s.end - s.start);
    }
    if (!engines.empty()) {
        std::printf("engine state (ms):\n");
        for (const auto &[trk, by] : engines) {
            std::printf("  %-12s", trk.c_str());
            for (const auto &[nm, t] : by)
                std::printf("  %s %.2f", nm.c_str(), t);
            std::printf("\n");
        }
    }
    return 0;
}

/** Print crash.json from a postmortem bundle. */
void
printCrash(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return;
    auto root = vip::json::parse(in);
    const auto *crash = root.find("crash");
    if (!crash)
        return;
    std::printf("crash       : %s at tick %.0f (digest %s)\n",
                vip::json::strField(*crash, "kind").c_str(),
                vip::json::numField(*crash, "tick"),
                vip::json::strField(*crash, "stateDigest").c_str());
    std::printf("reason      : %s\n",
                vip::json::strField(*crash, "reason").c_str());
    const auto *plan = crash->find("faultPlan");
    if (plan && !plan->str.empty())
        std::printf("fault plan  : %s\n", plan->str.c_str());
    const auto *csv = crash->find("metricsCsv");
    if (csv && !csv->str.empty())
        std::printf("metrics csv : %s\n", csv->str.c_str());
    const auto *run = root.find("run");
    if (run) {
        std::printf("run         :");
        for (const auto &[k, v] : run->obj)
            std::printf(" %s=%s", k.c_str(), v.str.c_str());
        std::printf("\n");
    }
    // A bundle whose ring wrote at least one snapshot is resumable:
    // name the checkpoint and spell out the resume command.
    const auto *ckpt = crash->find("checkpoint");
    if (ckpt && !ckpt->str.empty()) {
        std::printf("checkpoint  : %s (tick %.0f, %.3f ms)\n",
                    ckpt->str.c_str(),
                    vip::json::numField(*crash, "checkpointTick"),
                    vip::json::numField(*crash, "checkpointTick") /
                        1e9);
        std::printf("resume with : vip_sim");
        if (run) {
            auto field = [&](const char *key, const char *flag) {
                const auto *v = run->find(key);
                if (v && !v->str.empty()) {
                    // Crash bundles record the display name.
                    auto val = std::strcmp(key, "config") == 0
                                   ? vip::systemConfigCliNameOf(v->str)
                                   : v->str;
                    std::printf(" %s %s", flag, val.c_str());
                }
            };
            field("workload", "--workload");
            field("config", "--config");
            field("seconds", "--seconds");
            field("seed", "--seed");
        }
        std::printf(" --restore %s\n", ckpt->str.c_str());
        const auto *fp = crash->find("faultPlan");
        if (fp && !fp->str.empty()) {
            std::printf("              (plus the original --fault-* "
                        "flags: %s)\n", fp->str.c_str());
        }
    }
}

/** Print the counter snapshot from a stats.json dump. */
bool
printStats(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
    }
    auto f = vip::parseStatsJson(in);
    std::printf("counter snapshot (%zu stats):\n", f.stats.size());
    for (const auto &s : f.stats) {
        std::printf("  %-36s %14.9g %s\n", s.path.c_str(), s.value,
                    s.unit.c_str());
    }
    return true;
}

int
doListFrames(const vip::TraceFile &f)
{
    auto frames = vip::frameLifecycles(f);
    std::sort(frames.begin(), frames.end(),
              [](const vip::FrameLifecycle &a,
                 const vip::FrameLifecycle &b) {
                  return std::make_pair(a.flow, a.frame) <
                         std::make_pair(b.flow, b.frame);
              });
    for (const auto &fr : frames) {
        std::printf("%lld:%-6lld  gen %12.3f ms  e2e %8.3f ms  %s%s\n",
                    static_cast<long long>(fr.flow),
                    static_cast<long long>(fr.frame), ms(fr.genTick),
                    ms(fr.endToEndTicks()),
                    fr.complete ? "complete" : "in-flight",
                    fr.complete && fr.deadlineTick &&
                            fr.endTick > fr.deadlineTick
                        ? "  [deadline miss]"
                        : "");
    }
    std::printf("%zu frames\n", frames.size());
    return 0;
}

int
doFrame(const vip::TraceFile &f, const std::string &spec)
{
    auto sep = spec.find(':');
    if (sep == std::string::npos) {
        std::fprintf(stderr, "--frame wants <flow>:<frame>\n");
        return 2;
    }
    long long flow = std::atoll(spec.substr(0, sep).c_str());
    long long frame = std::atoll(spec.substr(sep + 1).c_str());

    auto frames = vip::frameLifecycles(f);
    const vip::FrameLifecycle *fr = nullptr;
    for (const auto &x : frames) {
        if (x.flow == flow && x.frame == frame)
            fr = &x;
    }
    if (!fr) {
        std::fprintf(stderr, "frame %lld:%lld not in trace\n", flow,
                     frame);
        return 1;
    }

    std::printf("frame %lld:%lld\n", flow, frame);
    std::printf("  generated %.6f ms, deadline %.6f ms\n",
                ms(fr->genTick), ms(fr->deadlineTick));
    if (fr->startTick)
        std::printf("  started   %.6f ms\n", ms(fr->startTick));
    for (const auto &[tick, nm] : fr->stageMarks)
        std::printf("  %-16s %.6f ms\n", nm.c_str(), ms(tick));
    if (fr->complete) {
        std::printf("  completed %.6f ms -> e2e %.6f ms (%llu "
                    "ticks)%s\n",
                    ms(fr->endTick), ms(fr->endToEndTicks()),
                    static_cast<unsigned long long>(
                        fr->endToEndTicks()),
                    fr->deadlineTick && fr->endTick > fr->deadlineTick
                        ? "  [deadline miss]"
                        : "");
    } else {
        std::printf("  never completed\n");
        return 0;
    }

    // Window of interest: the interval the e2e clock measures.
    std::uint64_t w0 = std::max(fr->genTick, fr->startTick);
    std::uint64_t w1 = fr->endTick;
    auto spans = collectSpans(f);

    // This frame's own compute, per exec track.
    std::map<std::string, double> compute;
    for (const auto &s : spans) {
        if (s.flow == flow && s.frame == frame)
            compute[trackName(f, s.tid)] += ms(s.end - s.start);
    }
    if (!compute.empty()) {
        std::printf("  per-stage unit time (ms):\n");
        for (const auto &[trk, t] : compute)
            std::printf("    %-12s %8.3f\n", trk.c_str(), t);
    }

    // Top stall contributors overlapping the frame's window.
    struct Contrib
    {
        std::string what;
        double overlapMs;
    };
    std::map<std::string, double> stalls;
    for (const auto &s : spans) {
        if (s.name != "stalled" && s.name != "backpressured")
            continue;
        std::uint64_t o0 = std::max(s.start, w0);
        std::uint64_t o1 = std::min(s.end, w1);
        if (o1 <= o0)
            continue;
        stalls[trackName(f, s.tid) + " " + s.name] += ms(o1 - o0);
    }
    std::vector<Contrib> top;
    for (const auto &[what, t] : stalls)
        top.push_back({what, t});
    std::sort(top.begin(), top.end(),
              [](const Contrib &a, const Contrib &b) {
                  return a.overlapMs > b.overlapMs;
              });
    if (!top.empty()) {
        std::printf("  top stall contributors in [%.3f, %.3f] ms:\n",
                    ms(w0), ms(w1));
        for (std::size_t i = 0; i < top.size() && i < 8; ++i) {
            std::printf("    %-28s %8.3f ms\n", top[i].what.c_str(),
                        top[i].overlapMs);
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode, frameSpec, file, statsFile;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--check" || arg == "--summary" ||
            arg == "--list-frames") {
            mode = arg;
        } else if (arg == "--frame") {
            mode = arg;
            if (i + 1 >= argc) {
                usage();
                return 2;
            }
            frameSpec = argv[++i];
        } else if (arg == "--stats") {
            if (i + 1 >= argc) {
                usage();
                return 2;
            }
            statsFile = argv[++i];
        } else if (arg.rfind("--stats=", 0) == 0) {
            statsFile = arg.substr(8);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 2;
        } else {
            file = arg;
        }
    }
    if (mode.empty() || file.empty()) {
        usage();
        return 2;
    }

    // A directory is a crash bundle from --postmortem-dir — or a
    // fleet shard directory whose attempts (a<attempt>/) each hold
    // their own pm/ bundle.  For a shard, surface the newest
    // attempt's bundle (the highest attempt number);
    // the shard's committed stats.json, when present, beats the
    // attempt's crash snapshot.
    std::string crashFile;
    if (std::filesystem::is_directory(file)) {
        auto dir = std::filesystem::path(file);
        if (!std::filesystem::exists(dir / "trace-tail.json")) {
            std::uint64_t best = 0;
            std::filesystem::path bestPm;
            for (const auto &e :
                 std::filesystem::directory_iterator(dir)) {
                if (!e.is_directory())
                    continue;
                const std::string name = e.path().filename().string();
                if (name.size() < 2 || name[0] != 'a' ||
                    !std::isdigit(
                        static_cast<unsigned char>(name[1])))
                    continue;
                char *end = nullptr;
                const std::uint64_t attempt =
                    std::strtoull(name.c_str() + 1, &end, 10);
                if (*end != '\0')
                    continue;
                const auto pm = e.path() / "pm";
                if (std::filesystem::exists(pm / "trace-tail.json") &&
                    attempt >= best) {
                    best = attempt;
                    bestPm = pm;
                }
            }
            if (!bestPm.empty()) {
                std::printf("fleet shard %s: newest postmortem "
                            "bundle a%llu/pm\n",
                            dir.filename().string().c_str(),
                            static_cast<unsigned long long>(best));
                if (statsFile.empty() &&
                    std::filesystem::exists(dir / "stats.json"))
                    statsFile = (dir / "stats.json").string();
                dir = bestPm;
            } else if (mode == "--summary" &&
                       std::filesystem::exists(dir / "stats.json")) {
                // A shard whose attempts all ran clean leaves no
                // pm/ bundle; the committed counter snapshot is
                // still worth surfacing.
                std::printf("fleet shard %s: no postmortem bundle "
                            "(clean run); committed stats only\n",
                            dir.filename().string().c_str());
                if (statsFile.empty())
                    statsFile = (dir / "stats.json").string();
                return printStats(statsFile) ? 0 : 2;
            }
        }
        crashFile = (dir / "crash.json").string();
        if (statsFile.empty() &&
            std::filesystem::exists(dir / "stats.json"))
            statsFile = (dir / "stats.json").string();
        file = (dir / "trace-tail.json").string();
    }

    std::ifstream in(file);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", file.c_str());
        return 2;
    }
    try {
        auto f = vip::parseTraceJson(in);
        if (mode == "--check")
            return doCheck(f);
        if (mode == "--summary") {
            if (!crashFile.empty())
                printCrash(crashFile);
            int rc = doSummary(f);
            if (!statsFile.empty() && !printStats(statsFile))
                rc = 2;
            return rc;
        }
        if (mode == "--list-frames")
            return doListFrames(f);
        return doFrame(f, frameSpec);
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "parse error: %s\n", e.what());
        return 2;
    }
}
