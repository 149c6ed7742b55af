/**
 * @file
 * vip_sim: the command-line front-end of the simulator.
 *
 * Runs one (workload, configuration) pair with every knob exposed as
 * a flag and emits the results as a human-readable report, an
 * optional stats.json, and an optional per-frame CSV trace.
 *
 *   vip_sim --workload W4 --config vip --seconds 0.5
 *   vip_sim --workload A5 --config baseline --ideal-memory
 *   vip_sim --workload W7 --config iptoip-fb --frame-csv out.csv
 *   vip_sim --workload W4 --config vip --trace-out run.json \
 *           --trace ip,frame,sched --metrics-out run.csv
 *   vip_sim --list
 */

#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>

#include "core/simulation.hh"
#include "fleet/transport/artifact.hh"
#include "obs/provenance.hh"

namespace
{

/**
 * SIGINT/SIGTERM land here; the simulation polls the flag between
 * events and stops gracefully at the first quiescent point — resume
 * destinations written, metrics rows already flushed, the other
 * outputs written on the way out — so an interrupted run (or a
 * fleet-killed worker) always leaves a resumable trail.  main() exits
 * 128+signal.
 */
std::atomic<int> gSignal{0};

extern "C" void
onSignal(int sig)
{
    gSignal.store(sig, std::memory_order_relaxed);
}

/** Longest simulated span a time flag may name: one day, far inside
 *  the picosecond tick range (~213 days). */
constexpr double kMaxSeconds = 86400.0;

/**
 * The value of @p flag, parsed strictly: the whole token must be a T
 * (finite, for reals) with lo <= x <= hi, or lo < x when @p lo_open.
 * Anything else is a fatal error that names the flag and the range.
 */
template <class T>
T
flagValue(const std::string &flag, const std::string &v, T lo,
          T hi = std::numeric_limits<T>::max(), bool lo_open = false)
{
    T x{};
    const char *end = v.data() + v.size();
    auto [p, ec] = std::from_chars(v.data(), end, x);
    bool ok = ec == std::errc() && p == end &&
              (lo_open ? x > lo : x >= lo) && x <= hi;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(x);
    if (!ok) {
        const bool bounded = hi < std::numeric_limits<T>::max();
        vip::fatal(flag, " needs ",
                   std::is_integral_v<T> ? "a whole number" : "a number",
                   lo_open ? " > " : " >= ", lo,
                   bounded ? " and <= " : "",
                   bounded ? vip::logging::format(hi) : "", ", got '",
                   v, "'");
    }
    return x;
}

/** @{ The value ranges vip_sim accepts, per kind of flag. */
std::uint32_t
countArg(const std::string &flag, const std::string &v)
{
    return flagValue<std::uint32_t>(flag, v, 1);
}

/** A span of simulated time in @p unit_per_sec units: > 0. */
double
periodArg(const std::string &flag, const std::string &v,
          double unit_per_sec)
{
    return flagValue(flag, v, 0.0, kMaxSeconds * unit_per_sec, true);
}

double
probabilityArg(const std::string &flag, const std::string &v)
{
    return flagValue(flag, v, 0.0, 1.0);
}
/** @} */

void
usage()
{
    std::printf(
        "usage: vip_sim [options]\n"
        "numeric values must be a whole token in range: counts are\n"
        "whole numbers >= 1, seeds >= 0, times > 0 (at most one\n"
        "simulated day), probabilities in [0, 1].\n"
        "  --workload <A1..A7|W1..W8>   workload (default W4)\n"
        "  --config <name>              baseline | frameburst |\n"
        "                               iptoip | iptoip-fb | vip\n"
        "  --seconds <s>                simulated time (default 0.4)\n"
        "  --seed <n>                   RNG seed (default 1)\n"
        "  --burst <frames>             default burst size (count)\n"
        "  --lanes <n>                  VIP buffer lanes per IP (count)\n"
        "  --sched <fifo|rr|edf>        VIP hardware scheduler\n"
        "  --lane-bytes <n>             per-lane buffer bytes (count)\n"
        "  --deadline <periods>         QoS deadline in frame periods\n"
        "                               (> 0, at most 1e6)\n"
        "  --ideal-memory               zero-latency DRAM (Fig 3)\n"
        "  --no-lowpower                disable DRAM sleep states\n"
        "  --dvfs                       ondemand CPU governor\n"
        "  --vsync                      judge QoS at vsync boundaries\n"
        "  --spill                      overflow full lanes to DRAM\n"
        "  --overload-policy <p>        reject | degrade | besteffort\n"
        "                               (admission control at open())\n"
        "  --admission-headroom <f>     IP capacity fraction admission\n"
        "                               keeps free, in [0, 1]\n"
        "                               (default 0.05)\n"
        "  --shed-after <frames>        degrade: shed a frame after N\n"
        "                               consecutive late frames (count)\n"
        "  --fault-plan <spec>          fault plan: a preset name\n"
        "                               (none|light|moderate|heavy) or\n"
        "                               key=value pairs, e.g.\n"
        "                               hang=0.01,corrupt=0.01,seed=7\n"
        "  --fault-hang <p>             engine hang probability/unit\n"
        "  --fault-corrupt <p>          sub-frame corruption prob.\n"
        "  --fault-xfer <p>             SA transfer error probability\n"
        "  --fault-ecc <p>              correctable ECC prob./burst\n"
        "  --fault-ecc-fatal <p>        uncorrectable ECC probability\n"
        "  --fault-seed <n>             fault RNG seed (default 1)\n"
        "  --fault-watchdog-us <us>     IP watchdog timeout, >= 0\n"
        "                               (0 = off)\n"
        "  --fault-retries <n>          per-unit retry budget, >= 0\n"
        "  --guard-ms <ms>              no-progress guard interval,\n"
        "                               >= 0 (default 250, 0 disables)\n"
        "  --audit <mode>               invariant audits: off | final |\n"
        "                               periodic[:<ms>] | strict\n"
        "                               (default off)\n"
        "  --digest-out <file>          write the audit digest stream\n"
        "                               (for vip_diverge; implies\n"
        "                               --audit periodic:1 if off)\n"
        "  --frame-csv <file>           write the per-frame CSV trace\n"
        "  --trace-out <file>           write a Chrome/Perfetto\n"
        "                               trace_event JSON of the run\n"
        "  --trace <cat,...>            categories to record: ip,\n"
        "                               frame, sa, dram, cpu, sched,\n"
        "                               fault, power (default all)\n"
        "  --trace-buffer <events>      trace ring capacity (count;\n"
        "                               default 524288, drop-oldest)\n"
        "  --metrics-out <file>         arm the sampler: every interval\n"
        "                               append the --ts selection as\n"
        "                               one CSV row (flushed per row;\n"
        "                               survives a killed run; a\n"
        "                               --restore run cuts the rows\n"
        "                               past its snapshot and appends;\n"
        "                               digest-neutral)\n"
        "  --metrics-interval-ms <ms>   sampling period (default 1)\n"
        "  --stats-out <file>           write every registered counter\n"
        "                               as self-describing JSON (the\n"
        "                               format vip_stats_diff reads)\n"
        "  --prof[=<file>]              profile the event-loop hot\n"
        "                               path (per-kind dispatch wall\n"
        "                               time, queue pressure) and\n"
        "                               write prof.json (or <file>);\n"
        "                               digest-neutral, <5%% overhead\n"
        "  --prof-sample-every <n>      steady_clock sampling stride\n"
        "                               (count; default 64)\n"
        "  --ts=<glob>                  the --metrics-out columns:\n"
        "                               stats matching the glob.\n"
        "                               Default: per-IP credits and\n"
        "                               busy/stall time, DRAM bytes\n"
        "                               and low-power time, SA busy\n"
        "                               time, per-core active/sleep\n"
        "                               time, per-flow frame counters\n"
        "                               and sim.eventq.live; '*'\n"
        "                               selects every stat\n"
        "  --checkpoint-on-steady[=<f>] arm the sampler's steady-state\n"
        "                               detector and write a one-shot\n"
        "                               snapshot at the first quiescent\n"
        "                               point after steady state is\n"
        "                               detected (default steady.vips);\n"
        "                               the warm-start seed for\n"
        "                               --restore\n"
        "  --postmortem-dir <dir>       on a fatal error write a crash\n"
        "                               bundle (crash.json, stats.json,\n"
        "                               trace-tail.json) there; also\n"
        "                               keeps a checkpoint ring\n"
        "                               (<dir>/checkpoint.vips) at the\n"
        "                               cadence below, so the run is\n"
        "                               resumable after a kill\n"
        "  --checkpoint-out <file>      write a snapshot at every\n"
        "                               cadence boundary (the prior\n"
        "                               file rotates to <file>.prev);\n"
        "                               the end of the run gets none\n"
        "  --checkpoint-every-ms <ms>   cadence of --checkpoint-out and\n"
        "                               the --postmortem-dir ring, in\n"
        "                               simulated ms (default 50); each\n"
        "                               snapshot lands at the first\n"
        "                               quiescent point at or after a\n"
        "                               boundary, and an interrupt\n"
        "                               writes one before it stops\n"
        "  --restore <file>             resume from a snapshot; pass\n"
        "                               the same workload/config/seed\n"
        "                               flags as the original run (any\n"
        "                               skew is a fatal error).  The\n"
        "                               resumed run's digests and\n"
        "                               stats are bit-identical to an\n"
        "                               uninterrupted run\n"
        "  --fnv1a <file>               print the file's FNV-1a 64\n"
        "                               checksum (16 hex digits) and\n"
        "                               exit; exit 1 if unreadable.\n"
        "                               Used by the fleet's remote\n"
        "                               artifact verification\n"
        "  --list                       list workloads and exit\n");
}

void
listWorkloads()
{
    std::printf("single applications (Table 1):\n");
    for (int i = 1; i <= 7; ++i) {
        auto a = vip::AppCatalog::byIndex(i);
        std::printf("  A%d  %-14s (%s)\n", i, a.name.c_str(),
                    vip::appClassName(a.cls));
        for (const auto &f : a.flows) {
            std::printf("      %-26s ", f.name.c_str());
            for (auto s : f.stages)
                std::printf("%s-", vip::ipKindName(s));
            std::printf(" @%.0f FPS\n", f.fps);
        }
    }
    std::printf("multi-app workloads (Table 2):\n");
    for (const auto &w : vip::WorkloadCatalog::all()) {
        std::printf("  %-3s %s\n", w.name.c_str(),
                    w.useCase.c_str());
    }
}

void
report(const vip::RunStats &s)
{
    std::printf("==== %s / %s: %.2f simulated seconds ====\n",
                s.workloadName.c_str(), s.configName.c_str(),
                s.seconds);
    std::printf("frames      : %llu completed / %llu generated "
                "(%.1f FPS displayed)\n",
                static_cast<unsigned long long>(s.framesCompleted),
                static_cast<unsigned long long>(s.framesGenerated),
                s.achievedFps);
    std::printf("QoS         : %llu violations, %llu drops "
                "(%.1f%% / %.1f%%)\n",
                static_cast<unsigned long long>(s.violations),
                static_cast<unsigned long long>(s.drops),
                s.violationRate * 100.0, s.dropRate * 100.0);
    std::printf("latency     : %.3f ms from generation, %.3f ms "
                "pipeline transit\n",
                s.meanFlowTimeMs, s.meanTransitMs);
    std::printf("energy      : %.1f mJ total, %.3f mJ/frame "
                "(cpu %.1f, dram %.1f, sa %.1f, ip %.1f, buf %.2f)\n",
                s.totalEnergyMj, s.energyPerFrameMj, s.cpuEnergyMj,
                s.dramEnergyMj, s.saEnergyMj, s.ipEnergyMj,
                s.bufferEnergyMj);
    std::printf("CPU         : %.1f ms active, %llu interrupts "
                "(%.1f per 100 ms), %.0fM instructions, %.0f%% "
                "asleep\n",
                s.cpuActiveMs,
                static_cast<unsigned long long>(s.interrupts),
                s.interruptsPer100ms,
                static_cast<double>(s.instructions) / 1e6,
                s.cpuSleepFraction * 100.0);
    std::printf("memory      : %.2f GB/s avg (%.3f GB moved), "
                "row-hit %.0f%%, >80%% peak %.0f%% of time\n",
                s.avgMemBandwidthGBps, s.memBytesGB,
                s.memRowHitRate * 100.0,
                s.fracTimeAbove80PctBw * 100.0);
    std::printf("system agent: %.1f%% utilized\n",
                s.saUtilization * 100.0);
    const auto &L = s.latency;
    if (L.endToEnd.count > 0) {
        auto row = [](const char *nm,
                      const vip::LatencyBreakdown &b) {
            if (b.count == 0)
                return;
            std::printf("  %-8s %8.3f %8.3f %8.3f %8.3f  (n=%llu)\n",
                        nm, b.p50Ms, b.p95Ms, b.p99Ms, b.maxMs,
                        static_cast<unsigned long long>(b.count));
        };
        std::printf("latency breakdown (p50/p95/p99/max ms):\n");
        row("e2e", L.endToEnd);
        row("transit", L.transit);
        row("sa-xfer", L.saTransfer);
        row("dram", L.dramBurst);
        for (const auto &st : L.stages) {
            std::printf("  stage %-4s total %.3f/%.3f/%.3f ms  "
                        "mean wait %.3f  compute %.3f  blocked "
                        "%.3f ms\n",
                        st.stage.c_str(), st.total.p50Ms,
                        st.total.p95Ms, st.total.p99Ms,
                        st.wait.meanMs, st.compute.meanMs,
                        st.blocked.meanMs);
        }
    }
    if (s.faults.injected() > 0) {
        const auto &f = s.faults;
        std::printf("faults      : %llu injected (hang %llu, "
                    "corrupt %llu, xfer %llu, ecc %llu+%llu)\n",
                    static_cast<unsigned long long>(f.injected()),
                    static_cast<unsigned long long>(f.engineHangs),
                    static_cast<unsigned long long>(f.corruptions),
                    static_cast<unsigned long long>(f.transferErrors),
                    static_cast<unsigned long long>(f.eccCorrectable),
                    static_cast<unsigned long long>(
                        f.eccUncorrectable));
        std::printf("recovery    : %llu watchdog resets, %llu unit "
                    "retries, %llu retransmits, %llu frames "
                    "degraded, %.3f ms mean / %.3f ms max recovery\n",
                    static_cast<unsigned long long>(f.watchdogResets),
                    static_cast<unsigned long long>(f.unitRetries),
                    static_cast<unsigned long long>(
                        f.transferRetries),
                    static_cast<unsigned long long>(f.framesDegraded),
                    f.meanRecoveryMs(), f.recoveryMaxMs);
    }
    if (s.framesShed > 0 || s.flowsRejected > 0 ||
        s.flowsDownRated > 0 || s.laneOverflows > 0) {
        std::printf("overload    : %llu frames shed (%.1f%%), %u "
                    "flows rejected, %u down-rated, %llu lane "
                    "overflows\n",
                    static_cast<unsigned long long>(s.framesShed),
                    s.shedRate * 100.0, s.flowsRejected,
                    s.flowsDownRated,
                    static_cast<unsigned long long>(s.laneOverflows));
    }
    std::printf("per-flow:\n");
    for (const auto &f : s.flows) {
        std::printf("  %-28s %4llu/%llu frames, %llu viol, "
                    "%.2f ms, %.1f FPS%s%s\n",
                    f.name.c_str(),
                    static_cast<unsigned long long>(f.completed),
                    static_cast<unsigned long long>(f.generated),
                    static_cast<unsigned long long>(f.violations),
                    f.meanFlowTimeMs, f.achievedFps,
                    f.qosCritical ? "" : "  (non-critical)",
                    !f.admitted ? "  [rejected]"
                                : (f.fps != f.nominalFps
                                       ? "  [down-rated]"
                                       : ""));
        if (f.shed > 0) {
            std::printf("  %-28s %4llu frames shed at the chain "
                        "head\n", "",
                        static_cast<unsigned long long>(f.shed));
        }
    }
    std::printf("per-IP:\n");
    for (const auto &ip : s.ips) {
        std::printf("  %-5s active %7.2f ms, stall %7.2f ms, "
                    "util %.2f, %6.1f MB DRAM, %llu ctx switches\n",
                    ip.name.c_str(), ip.activeMs, ip.stallMs,
                    ip.utilization,
                    static_cast<double>(ip.memBytes) / 1e6,
                    static_cast<unsigned long long>(
                        ip.contextSwitches));
    }
}

/** printf into a string: the summary line of one output file. */
[[gnu::format(printf, 1, 2)]] std::string
line(const char *fmt, ...)
{
    char buf[8192];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/**
 * One file vip_sim was asked to write.  Every one is opened before
 * the first event, so an unwritable path fails before the run, and
 * written after it; a failed open or write is fatal and names the
 * flag and the path.
 */
struct Output
{
    const char *flag;
    std::string path;
    /** Writes the file; returns the summary line printed after. */
    std::function<std::string(std::ostream &)> write;
    std::ofstream file{};
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "W4";
    std::string config = "vip";
    std::string statsFile;
    std::string frameCsv;
    std::string digestFile;
    std::string tsGlob;
    vip::SocConfig cfg;
    cfg.simSeconds = 0.4;

    try {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                vip::fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--fnv1a") {
            // Checksum-and-exit mode: lets a bare remote host verify
            // staged/produced artifacts with no tooling beyond the
            // worker binary itself.
            const std::string path = next();
            bool ok = false;
            const std::uint64_t h = vip::fleet::fnv1aFile(path, &ok);
            if (!ok)
                return 1;
            std::printf("%s\n", vip::fleet::fnvHex(h).c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--config") {
            config = next();
        } else if (arg == "--seconds") {
            cfg.simSeconds = periodArg(arg, next(), 1.0);
        } else if (arg == "--seed") {
            cfg.seed = flagValue<std::uint64_t>(arg, next(), 0);
        } else if (arg == "--burst") {
            cfg.burstFrames = countArg(arg, next());
        } else if (arg == "--lanes") {
            cfg.vipLanes = countArg(arg, next());
        } else if (arg == "--sched") {
            auto v = next();
            if (v == "fifo")
                cfg.vipSched = vip::SchedPolicy::FIFO;
            else if (v == "rr")
                cfg.vipSched = vip::SchedPolicy::RoundRobin;
            else if (v == "edf")
                cfg.vipSched = vip::SchedPolicy::EDF;
            else
                vip::fatal("unknown scheduler '", v,
                           "' (expected fifo, rr or edf)");
        } else if (arg == "--lane-bytes") {
            cfg.laneBytes = countArg(arg, next());
        } else if (arg == "--deadline") {
            cfg.deadlineFrames = flagValue(arg, next(), 0.0, 1e6, true);
        } else if (arg == "--ideal-memory") {
            cfg.dram.ideal = true;
        } else if (arg == "--no-lowpower") {
            cfg.dram.enableLowPower = false;
        } else if (arg == "--dvfs") {
            cfg.cpu.governor = vip::CpuGovernor::OnDemand;
        } else if (arg == "--vsync") {
            cfg.vsyncAligned = true;
        } else if (arg == "--spill") {
            cfg.overflowToMemory = true;
        } else if (arg == "--overload-policy") {
            auto v = next();
            if (v == "reject")
                cfg.overloadPolicy = vip::OverloadPolicy::Reject;
            else if (v == "degrade")
                cfg.overloadPolicy = vip::OverloadPolicy::Degrade;
            else if (v == "besteffort")
                cfg.overloadPolicy = vip::OverloadPolicy::BestEffort;
            else
                vip::fatal("unknown overload policy '", v, "'");
        } else if (arg == "--admission-headroom") {
            cfg.admissionHeadroom = probabilityArg(arg, next());
        } else if (arg == "--shed-after") {
            cfg.shedAfterLateFrames = countArg(arg, next());
        } else if (arg == "--fault-plan") {
            cfg.fault = vip::FaultPlan::parse(next());
        } else if (arg == "--fault-hang") {
            cfg.fault.engineHangProb = probabilityArg(arg, next());
        } else if (arg == "--fault-corrupt") {
            cfg.fault.subframeCorruptProb = probabilityArg(arg, next());
        } else if (arg == "--fault-xfer") {
            cfg.fault.transferErrorProb = probabilityArg(arg, next());
        } else if (arg == "--fault-ecc") {
            cfg.fault.eccCorrectableProb = probabilityArg(arg, next());
        } else if (arg == "--fault-ecc-fatal") {
            cfg.fault.eccUncorrectableProb =
                probabilityArg(arg, next());
        } else if (arg == "--fault-seed") {
            cfg.fault.seed = flagValue<std::uint64_t>(arg, next(), 0);
        } else if (arg == "--fault-watchdog-us") {
            cfg.fault.watchdogTimeout = vip::fromUs(
                flagValue(arg, next(), 0.0, kMaxSeconds * 1e6));
        } else if (arg == "--fault-retries") {
            cfg.fault.maxRetries = flagValue<std::uint32_t>(arg, next(), 0);
        } else if (arg == "--guard-ms") {
            cfg.noProgressSec =
                flagValue(arg, next(), 0.0, kMaxSeconds * 1e3) / 1000.0;
        } else if (arg == "--audit") {
            cfg.audit = vip::AuditConfig::parse(next());
        } else if (arg.rfind("--audit=", 0) == 0) {
            cfg.audit = vip::AuditConfig::parse(arg.substr(8));
        } else if (arg == "--digest-out") {
            digestFile = next();
        } else if (arg.rfind("--digest-out=", 0) == 0) {
            digestFile = arg.substr(13);
        } else if (arg == "--frame-csv") {
            frameCsv = next();
            cfg.recordTrace = true;
        } else if (arg == "--trace-out") {
            cfg.trace.out = next();
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            cfg.trace.out = arg.substr(12);
        } else if (arg == "--trace") {
            cfg.trace.categories = vip::parseTraceCats(next());
        } else if (arg.rfind("--trace=", 0) == 0) {
            cfg.trace.categories =
                vip::parseTraceCats(arg.substr(8));
        } else if (arg == "--trace-buffer") {
            cfg.trace.bufferEvents = countArg(arg, next());
        } else if (arg == "--metrics-out") {
            cfg.ts.metricsOut = next();
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            cfg.ts.metricsOut = arg.substr(14);
        } else if (arg == "--stats-out") {
            statsFile = next();
        } else if (arg.rfind("--stats-out=", 0) == 0) {
            statsFile = arg.substr(12);
        } else if (arg == "--prof") {
            cfg.prof.out = "prof.json";
        } else if (arg.rfind("--prof=", 0) == 0) {
            cfg.prof.out = arg.substr(7);
            if (cfg.prof.out.empty())
                vip::fatal("--prof= needs a file name");
        } else if (arg == "--prof-sample-every" ||
                   arg.rfind("--prof-sample-every=", 0) == 0) {
            std::string v = arg[19] == '=' ? arg.substr(20) : next();
            cfg.prof.sampleEvery = countArg("--prof-sample-every", v);
        } else if (arg.rfind("--ts=", 0) == 0) {
            tsGlob = arg.substr(5);
            if (tsGlob.empty())
                vip::fatal("--ts= needs a stat glob");
        } else if (arg == "--checkpoint-on-steady") {
            cfg.ts.checkpointOnSteady = "steady.vips";
        } else if (arg.rfind("--checkpoint-on-steady=", 0) == 0) {
            cfg.ts.checkpointOnSteady = arg.substr(23);
            if (cfg.ts.checkpointOnSteady.empty())
                vip::fatal("--checkpoint-on-steady= needs a file "
                           "name");
        } else if (arg == "--postmortem-dir") {
            cfg.postmortemDir = next();
        } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
            cfg.postmortemDir = arg.substr(17);
        } else if (arg == "--checkpoint-out") {
            cfg.checkpointOut = next();
        } else if (arg.rfind("--checkpoint-out=", 0) == 0) {
            cfg.checkpointOut = arg.substr(17);
        } else if (arg == "--checkpoint-every-ms") {
            cfg.checkpointEveryMs = periodArg(arg, next(), 1e3);
        } else if (arg == "--restore") {
            cfg.restorePath = next();
        } else if (arg.rfind("--restore=", 0) == 0) {
            cfg.restorePath = arg.substr(10);
        } else if (arg == "--metrics-interval-ms") {
            cfg.ts.intervalMs = periodArg(arg, next(), 1e3);
        } else if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

        if (!tsGlob.empty()) {
            if (cfg.ts.metricsOut.empty())
                vip::fatal("--ts=", tsGlob, " picks the --metrics-out "
                           "columns, but no --metrics-out was given");
            cfg.ts.glob = tsGlob;
        }
        cfg.system = vip::systemConfigByCliName(config);
        if (!digestFile.empty() && !cfg.audit.enabled())
            cfg.audit = vip::AuditConfig::parse("periodic:1");
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        cfg.interruptFlag = &gSignal;
        vip::Simulation sim(cfg, vip::WorkloadCatalog::byName(workload));
        vip::RunStats s;
        Output outputs[] = {
            {"--stats-out", statsFile, [&](std::ostream &os) {
                 sim.writeStatsJson(os);
                 return line("stats written to %s (%zu stats)",
                             statsFile.c_str(),
                             sim.statsRegistry().size());
             }},
            {"--prof", cfg.prof.out, [&](std::ostream &os) {
                 sim.writeProfJson(os);
                 return line("profile written to %s (%llu dispatches, "
                             "%llu sampled)",
                             cfg.prof.out.c_str(),
                             static_cast<unsigned long long>(
                                 sim.profiler()->dispatches()),
                             static_cast<unsigned long long>(
                                 sim.profiler()->sampledDispatches()));
             }},
            {"--frame-csv", frameCsv, [&](std::ostream &os) {
                 s.trace.dumpCsv(os);
                 return line("trace written to %s (%zu frames)",
                             frameCsv.c_str(), s.trace.size());
             }},
            {"--trace-out", cfg.trace.out, [&](std::ostream &os) {
                 sim.tracer()->writeJson(
                     os, {{"workload", workload},
                          {"config", config},
                          {"seed", std::to_string(cfg.seed)}});
                 return line("trace written to %s (%zu events, %llu "
                             "dropped)",
                             cfg.trace.out.c_str(), sim.tracer()->size(),
                             static_cast<unsigned long long>(
                                 sim.tracer()->dropped()));
             }},
            {"--digest-out", digestFile, [&](std::ostream &os) {
                 std::vector<std::string> meta{
                     "workload=" + workload, "config=" + config,
                     "seed=" + std::to_string(cfg.seed)};
                 for (const auto &l : vip::provenanceMetaLines())
                     meta.push_back(l);
                 sim.auditor().writeDigestStream(os, meta);
                 return line("digest stream written to %s (%zu "
                             "records)",
                             digestFile.c_str(),
                             sim.auditor().stream().records.size());
             }},
        };
        for (Output &o : outputs) {
            if (o.path.empty())
                continue;
            o.file.open(o.path);
            if (!o.file)
                vip::fatal(o.flag, ": cannot write ", o.path);
        }
        s = sim.run();
        report(s);
        if (sim.interrupted()) {
            std::fprintf(stderr,
                         "interrupted : signal %d at %.3f simulated "
                         "ms; outputs flushed%s%s\n",
                         sim.interruptSignal(),
                         vip::toMs(sim.system().curTick()),
                         sim.checkpointsWritten() > 0
                             ? ", resume with --restore "
                             : " (no checkpoint ring armed)",
                         sim.checkpointsWritten() > 0
                             ? sim.lastCheckpointPath().c_str()
                             : "");
        }
        if (sim.checkpointsWritten() > 0) {
            std::printf("checkpoints : %llu snapshot(s) written%s%s\n",
                        static_cast<unsigned long long>(
                            sim.checkpointsWritten()),
                        cfg.checkpointOut.empty() ? "" : ", latest ",
                        cfg.checkpointOut.c_str());
        }
        if (cfg.audit.enabled()) {
            std::printf("audit       : %llu passes, %llu digest "
                        "records, %llu violations (%s), stream "
                        "%016llx\n",
                        static_cast<unsigned long long>(s.auditPasses),
                        static_cast<unsigned long long>(
                            s.auditRecords),
                        static_cast<unsigned long long>(
                            s.auditViolations),
                        vip::auditModeName(cfg.audit.mode),
                        static_cast<unsigned long long>(
                            s.digestStreamHash));
            for (const auto &v : sim.auditor().violations())
                std::printf("  %s\n", v.format().c_str());
        }
        if (!cfg.ts.checkpointOnSteady.empty()) {
            const vip::TimeSeries *ts = sim.timeseries();
            if (sim.steadySnapshotWritten()) {
                std::printf("steady      : detected at %.3f ms; "
                            "warm-start snapshot %s\n",
                            ts->steadyTickMs(),
                            cfg.ts.checkpointOnSteady.c_str());
            } else if (ts->steadyDetected()) {
                std::fprintf(stderr,
                             "steady      : detected at %.3f ms, but "
                             "the platform never reached a quiescent "
                             "point after it; no snapshot written to "
                             "%s\n",
                             ts->steadyTickMs(),
                             cfg.ts.checkpointOnSteady.c_str());
            } else {
                std::fprintf(stderr,
                             "steady      : not reached; no snapshot "
                             "written to %s\n",
                             cfg.ts.checkpointOnSteady.c_str());
            }
        }
        // The CSV was streamed (and flushed) row by row as it was
        // sampled.
        if (!cfg.ts.metricsOut.empty()) {
            std::printf("metrics written to %s (%llu rows x %zu stats)\n",
                        cfg.ts.metricsOut.c_str(),
                        static_cast<unsigned long long>(
                            sim.timeseries()->samplesSeen()),
                        sim.timeseries()->selected());
        }
        for (Output &o : outputs) {
            if (o.path.empty())
                continue;
            const std::string summary = o.write(o.file);
            o.file.close();
            if (!o.file)
                vip::fatal(o.flag, ": cannot write ", o.path);
            std::printf("%s\n", summary.c_str());
        }
        if (sim.interrupted())
            return 128 + sim.interruptSignal();
        if (s.auditViolations > 0)
            return 1;
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
