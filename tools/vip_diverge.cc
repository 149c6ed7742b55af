/**
 * @file
 * vip_diverge: locate the first difference between two digest streams.
 *
 * Feed it two files written by vip_sim --digest-out (or by the bench
 * drivers).  Identical streams mean the two runs marched through
 * bit-identical architectural state at every audit point; otherwise
 * the tool names the first divergent tick and component, which is
 * where to start bisecting a nondeterminism or a behavior regression.
 *
 *   vip_sim --workload W4 --config vip --audit=periodic:1 \
 *           --digest-out a.dig
 *   vip_sim --workload W4 --config vip --audit=periodic:1 \
 *           --digest-out b.dig
 *   vip_diverge a.dig b.dig
 *
 * With --bisect --checkpoints <dir> the tool additionally bisects the
 * divergence against the snapshots in <dir> (written by vip_sim
 * --checkpoint-out / --checkpoint-every-ms or the flight-recorder
 * ring): it binary-searches the checkpoint ticks for the newest
 * snapshot strictly before the first diverging tick (the last
 * known-good restore point) and prints the vip_sim command that
 * replays just the divergence window from it, instead of the whole
 * run from tick zero.  Each snapshot file rotates only two
 * generations deep (<file> and <file>.prev), so the directory covers
 * just the last two cadence periods of the run; an earlier
 * divergence has no snapshot before it and replays from tick zero.
 *
 * Exit status: 0 identical, 1 diverged, 2 usage/load error,
 * 3 one stream is a strict prefix of the other (truncation — e.g. a
 * run that aborted mid-way); the truncation point is reported as the
 * divergence.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "sim/audit.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace
{

void
usage()
{
    std::printf(
        "usage: vip_diverge [-q] [--bisect --checkpoints <dir>]"
        " <a.dig> <b.dig>\n"
        "  compares two digest streams written by vip_sim"
        " --digest-out\n"
        "  -q  only set the exit status (0 identical, 1 diverged,\n"
        "      3 truncated: one stream is a prefix of the other)\n"
        "  --bisect            locate the divergence against the\n"
        "                      checkpoints in --checkpoints <dir>:\n"
        "                      report the newest snapshot before the\n"
        "                      first diverging tick and the command\n"
        "                      that replays the divergence window\n"
        "  --checkpoints <dir> directory of .vips snapshots\n");
}

/** One checkpoint candidate for the bisection. */
struct Candidate
{
    std::string path;
    vip::SnapshotMeta meta;
};

/**
 * Collect every readable snapshot in @p dir (non-recursive; both
 * live files and the rotated .prev generation), sorted by capture
 * tick.  Unreadable or foreign files are skipped with a note.
 */
std::vector<Candidate>
collectCheckpoints(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<Candidate> out;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        if (!e.is_regular_file())
            continue;
        auto name = e.path().filename().string();
        if (name.find(".vips") == std::string::npos)
            continue;
        try {
            Candidate c;
            c.path = e.path().string();
            c.meta = vip::SnapshotReader::readMeta(c.path);
            out.push_back(std::move(c));
        } catch (const vip::SimFatal &err) {
            std::fprintf(stderr, "note: skipping %s: %s\n",
                         e.path().string().c_str(), err.what());
        }
    }
    if (ec) {
        std::fprintf(stderr, "error: cannot read %s: %s\n",
                     dir.c_str(), ec.message().c_str());
    }
    std::sort(out.begin(), out.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.meta.tick < b.meta.tick;
              });
    return out;
}

/**
 * Binary-search @p cands (sorted by tick) around the diverging tick
 * and report the replay window.  Returns false when no checkpoint
 * precedes the divergence (replay must start from tick zero).
 */
bool
reportBisection(const std::vector<Candidate> &cands,
                const vip::Divergence &d)
{
    if (cands.empty()) {
        std::printf("bisect: no readable checkpoints\n");
        return false;
    }
    // First checkpoint at or after the diverging tick: it already
    // contains post-divergence state, so it cannot seed a replay.
    auto bad = std::lower_bound(
        cands.begin(), cands.end(), d.tick,
        [](const Candidate &c, vip::Tick t) { return c.meta.tick < t; });
    if (bad == cands.begin()) {
        std::printf(
            "bisect: all %zu checkpoints are at or after the "
            "diverging tick; replay from tick 0\n", cands.size());
        return false;
    }
    const Candidate &good = *(bad - 1);
    std::printf(
        "bisect: last checkpoint before divergence: %s\n"
        "  captured at tick %llu (%.3f ms), %.3f ms before the "
        "divergence\n",
        good.path.c_str(),
        static_cast<unsigned long long>(good.meta.tick),
        vip::toMs(good.meta.tick), vip::toMs(d.tick - good.meta.tick));
    if (bad != cands.end()) {
        std::printf(
            "  first post-divergence checkpoint: %s (tick %llu)\n",
            bad->path.c_str(),
            static_cast<unsigned long long>(bad->meta.tick));
    }
    const auto &m = good.meta;
    std::printf(
        "  replay the divergence window with:\n"
        "    vip_sim --workload %s --config %s --seconds %g"
        " --seed %llu \\\n"
        "            --restore %s \\\n"
        "            --audit periodic:1 --digest-out replay.dig\n",
        m.workloadName.c_str(),
        vip::systemConfigCliNameOf(m.configName).c_str(), m.simSeconds,
        static_cast<unsigned long long>(m.seed), good.path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quiet = false;
    bool bisect = false;
    std::string checkpointDir;
    std::string pathA, pathB;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-q") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--bisect") == 0) {
            bisect = true;
        } else if (std::strcmp(argv[i], "--checkpoints") == 0 &&
                   i + 1 < argc) {
            checkpointDir = argv[++i];
        } else if (std::strncmp(argv[i], "--checkpoints=", 14) == 0) {
            checkpointDir = argv[i] + 14;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage();
            return 0;
        } else if (pathA.empty()) {
            pathA = argv[i];
        } else if (pathB.empty()) {
            pathB = argv[i];
        } else {
            usage();
            return 2;
        }
    }
    if (pathA.empty() || pathB.empty()) {
        usage();
        return 2;
    }
    if (bisect && checkpointDir.empty()) {
        std::fprintf(stderr,
                     "error: --bisect requires --checkpoints <dir>\n");
        return 2;
    }

    try {
        auto a = vip::Auditor::loadDigestFile(pathA);
        auto b = vip::Auditor::loadDigestFile(pathB);
        auto d = vip::Auditor::firstDivergence(a, b);
        if (!d.diverged) {
            if (!quiet) {
                std::printf("identical: %zu records, %zu components\n",
                            a.records.size(), a.components.size());
            }
            return 0;
        }
        if (quiet)
            return d.truncated ? 3 : 1;
        if (d.truncated) {
            std::printf(
                "truncated: stream lengths differ (%zu vs %zu "
                "records); first missing record #%zu",
                a.records.size(), b.records.size(), d.record);
            if (!d.component.empty()) {
                std::printf(" (tick %llu, %s)",
                            static_cast<unsigned long long>(d.tick),
                            d.component.c_str());
            }
            std::printf("\n");
            if (bisect)
                reportBisection(collectCheckpoints(checkpointDir), d);
            return 3;
        }
        std::printf(
            "diverged at record #%zu: tick %llu (%.3f ms), "
            "component %s\n  a: %016llx\n  b: %016llx\n",
            d.record, static_cast<unsigned long long>(d.tick),
            vip::toMs(d.tick), d.component.c_str(),
            static_cast<unsigned long long>(d.digestA),
            static_cast<unsigned long long>(d.digestB));
        if (bisect)
            reportBisection(collectCheckpoints(checkpointDir), d);
        return 1;
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
