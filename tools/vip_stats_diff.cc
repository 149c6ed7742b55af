/**
 * @file
 * vip_stats_diff: compare two stats.json dumps under per-stat
 * tolerance rules (the CI perf-regression gate).
 *
 *   vip_stats_diff baseline.json candidate.json
 *   vip_stats_diff --tol 'dram.avg_bw_gbps=pct:10' base.json cand.json
 *   vip_stats_diff --tol 'latency.*=pct:15' base.json cand.json

 *   vip_stats_diff --list run.json          # print the parsed stats
 *   vip_stats_diff --json base.json cand.json   # machine-readable
 *
 * Exit status: 0 when every stat is within tolerance, 1 when any
 * violation is found (each is printed with the offending path), 2 on
 * usage or parse errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/stats_io.hh"
#include "sim/logging.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: vip_stats_diff [options] baseline.json candidate.json\n"
        "       vip_stats_diff --list stats.json\n"
        "  --tol <path>=<rule>   override a stat's tolerance; the path\n"
        "                        may end in '*' to match a prefix, the\n"
        "                        rule is 'exact' or 'pct:<band>'\n"
        "                        (repeatable; longest match wins)\n"
        "  --list                print the parsed stats and exit\n"
        "  --json                emit a machine-readable per-stat\n"
        "                        verdict report (path, values, delta,\n"
        "                        rule applied, pass/fail) on stdout\n"
        "  -q                    quiet: exit status only\n");
}

/** The --json report: one row per union-of-paths stat, each with the
 *  rule that was applied and its verdict. */
void
writeJsonReport(const vip::StatsComparison &cmp)
{
    std::printf("{\n"
                "  \"kind\": \"vip-stats-diff\",\n"
                "  \"schemaVersion\": 1,\n"
                "  \"ok\": %s,\n"
                "  \"compared\": %zu,\n"
                "  \"violations\": %zu,\n"
                "  \"stats\": [\n",
                cmp.ok ? "true" : "false", cmp.compared,
                cmp.violations().size());
    bool first = true;
    for (const vip::StatVerdict &r : cmp.rows) {
        std::printf("%s    {\"path\": %s, \"verdict\": \"%s\", "
                    "\"rule\": %s",
                    first ? "" : ",\n", vip::json::quoted(r.path).c_str(),
                    vip::verdictName(r.kind),
                    vip::json::quoted(r.rule).c_str());
        if (r.baseline)
            std::printf(", \"baseline\": %.17g", *r.baseline);
        if (r.candidate)
            std::printf(", \"candidate\": %.17g", *r.candidate);
        if (r.baseline && r.candidate)
            std::printf(", \"delta\": %.17g", *r.candidate - *r.baseline);
        std::printf("}");
        first = false;
    }
    std::printf("\n  ]\n}\n");
}

vip::StatsFile
load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        vip::fatal("cannot read ", path);
    return vip::parseStatsJson(in);
}

void
list(const vip::StatsFile &f)
{
    for (const auto &[k, v] : f.run)
        std::printf("# %s=%s\n", k.c_str(), v.c_str());
    for (const auto &s : f.stats) {
        std::printf("%-40s %.9g %s  [%s]  %s\n", s.path.c_str(),
                    s.value, s.unit.c_str(), s.tol.c_str(),
                    s.desc.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    vip::ToleranceOverrides overrides;
    std::vector<std::string> files;
    bool wantList = false;
    bool quiet = false;
    bool wantJson = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--tol" || arg.rfind("--tol=", 0) == 0) {
                std::string spec;
                if (arg == "--tol") {
                    if (i + 1 >= argc)
                        vip::fatal("--tol needs <path>=<rule>");
                    spec = argv[++i];
                } else {
                    spec = arg.substr(6);
                }
                auto eq = spec.find('=');
                if (eq == std::string::npos || eq == 0)
                    vip::fatal("--tol wants <path>=<rule>, got '",
                               spec, "'");
                overrides[spec.substr(0, eq)] = spec.substr(eq + 1);
            } else if (arg == "--list") {
                wantList = true;
            } else if (arg == "--json") {
                wantJson = true;
            } else if (arg == "-q" || arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr, "unknown option %s\n",
                             arg.c_str());
                usage();
                return 2;
            } else {
                files.push_back(arg);
            }
        }

        if (wantList) {
            if (files.size() != 1) {
                usage();
                return 2;
            }
            list(load(files[0]));
            return 0;
        }
        if (files.size() != 2) {
            usage();
            return 2;
        }

        vip::StatsFile baseline = load(files[0]);
        vip::StatsFile candidate = load(files[1]);
        vip::StatsComparison cmp =
            vip::compareStats(baseline, candidate, overrides);
        if (wantJson) {
            writeJsonReport(cmp);
            return cmp.ok ? 0 : 1;
        }
        if (!quiet) {
            const std::vector<std::string> violations = cmp.violations();
            for (const auto &v : violations)
                std::printf("VIOLATION %s\n", v.c_str());
            std::printf("%zu stats compared, %zu violations (%s)\n",
                        cmp.compared, violations.size(),
                        cmp.ok ? "PASS" : "FAIL");
        }
        return cmp.ok ? 0 : 1;
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    }
}
