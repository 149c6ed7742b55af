/**
 * @file
 * vip_fleet: crash-resumable local sweep runner.
 *
 * Expands a declarative JSON job spec (configs x workloads x seeds x
 * fault plans) into shards, runs each attempt as one forked vip_sim
 * worker in one of N supervised slots, and merges the per-shard stats
 * into one percentile report.  Workers that crash, hang, get killed
 * or cannot be launched are retried with seeded backoff, resuming
 * from their flight-recorder checkpoint ring; jobs that exhaust the
 * attempt cap land in the report's failed_jobs section instead of
 * aborting the sweep.
 *
 *   vip_fleet --spec sweep.json --out runs/nightly
 *   vip_fleet --spec sweep.json --out runs/x --kill vip-W4-s1@30
 *
 * Exit codes: 0 every job done, 1 completed with failed jobs,
 * 2 interrupted or fatal setup error.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fleet/supervisor.hh"
#include "sim/logging.hh"

namespace
{

/** SIGINT/SIGTERM: the supervisor drains workers gracefully (each
 *  one writes its final ring checkpoint) and still writes the
 *  report, so an interrupted sweep is resumable shard by shard. */
std::atomic<int> gSignal{0};

extern "C" void
onSignal(int sig)
{
    gSignal.store(sig, std::memory_order_relaxed);
}

void
usage()
{
    std::printf(
        "usage: vip_fleet --spec <file> --out <dir> [options]\n"
        "  --spec <file>        JSON job spec (sweep axes + policy)\n"
        "  --out <dir>          output tree: journal.jsonl (the\n"
        "                       sweep's record; vip_top <dir> folds it\n"
        "                       live), report.json, aggregate.json and\n"
        "                       shards/<job>/{stats.json,metrics.csv,\n"
        "                       pm/,log.txt}\n"
        "  --vip-sim <path>     worker binary (default: vip_sim next\n"
        "                       to this executable); every attempt\n"
        "                       is one run of it, in\n"
        "                       shards/<job>/a<attempt>/\n"
        "  --kill <job>@<ms>    chaos: SIGKILL the named job's first\n"
        "                       attempt once its heartbeat reaches\n"
        "                       <ms> simulated ms (exercises\n"
        "                       kill->backoff->resume)\n"
        "  --print-jobs         list the expanded jobs and exit\n"
        "  --quiet              do not echo journal records to\n"
        "                       stderr\n");
}

std::string
dirOf(const std::string &argv0)
{
    const std::size_t slash = argv0.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : argv0.substr(0, slash);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specPath;
    vip::fleet::FleetOptions opt;
    bool printJobs = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    vip::fatal(arg, " needs a value");
                return argv[++i];
            };
            if (arg == "--spec") {
                specPath = next();
            } else if (arg == "--out") {
                opt.outDir = next();
            } else if (arg == "--vip-sim") {
                opt.vipSimPath = next();
            } else if (arg == "--kill") {
                const std::string v = next();
                const std::size_t at = v.find('@');
                if (at == std::string::npos || at == 0 ||
                    at + 1 >= v.size())
                    vip::fatal("--kill wants <jobid>@<sim-ms>, got '",
                               v, "'");
                opt.killJobId = v.substr(0, at);
                char *end = nullptr;
                const std::string ms = v.substr(at + 1);
                opt.killAtSimMs = std::strtod(ms.c_str(), &end);
                if (end == ms.c_str() || *end != '\0' ||
                    !(opt.killAtSimMs >= 0.0))
                    vip::fatal("--kill: bad sim-ms '", ms, "'");
            } else if (arg == "--print-jobs") {
                printJobs = true;
            } else if (arg == "--quiet") {
                opt.verbose = false;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                std::fprintf(stderr, "unknown option %s\n",
                             arg.c_str());
                usage();
                return 2;
            }
        }
        if (specPath.empty())
            vip::fatal("--spec is required");

        vip::fleet::JobSpec spec =
            vip::fleet::JobSpec::parseFile(specPath);

        if (printJobs) {
            for (const auto &j : spec.jobs)
                std::printf("%s\n", j.id.c_str());
            return 0;
        }
        if (opt.outDir.empty())
            vip::fatal("--out is required");
        if (opt.vipSimPath.empty())
            opt.vipSimPath = dirOf(argv[0]) + "/vip_sim";

        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        opt.stopFlag = &gSignal;

        vip::fleet::FleetSupervisor sup(std::move(spec),
                                        std::move(opt));
        return sup.run().exitCode();
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    }
}
