#include "fleet/supervisor.hh"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/json.hh"
#include "obs/stats_io.hh"
#include "obs/stats_merge.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace vip
{
namespace fleet
{

namespace
{

/** Supervisor poll cadence, wall ms. */
constexpr double kPollMs = 10.0;

std::string
fmtNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

} // namespace

ShardPaths
shardPaths(const std::string &outDir, const std::string &jobId)
{
    ShardPaths p;
    p.dir = outDir + "/shards/" + jobId;
    p.statsJson = p.dir + "/stats.json";
    p.metricsCsv = p.dir + "/metrics.csv";
    p.pmDir = p.dir + "/pm";
    p.checkpoint = p.pmDir + "/checkpoint.vips";
    p.digest = p.dir + "/digest.dig";
    p.log = p.dir + "/log.txt";
    return p;
}

std::string
attemptDir(const std::string &outDir, const std::string &jobId,
           int attempt)
{
    return outDir + "/shards/" + jobId + "/a" + std::to_string(attempt);
}

std::vector<std::string>
workerArgs(const JobSpec &spec, const FleetJob &job)
{
    const FleetPolicy &pol = spec.fleet;
    std::vector<std::string> a;
    a.push_back("--workload");
    a.push_back(job.workload);
    a.push_back("--config");
    a.push_back(job.config);
    a.push_back("--seed");
    a.push_back(std::to_string(job.seed));
    a.push_back("--seconds");
    a.push_back(fmtNum(spec.seconds));
    if (!job.faultPlan.empty()) {
        a.push_back("--fault-plan");
        a.push_back(job.faultPlan);
    }
    if (!spec.audit.empty()) {
        a.push_back("--audit");
        a.push_back(spec.audit);
    }
    if (pol.digests) {
        a.push_back("--digest-out");
        a.push_back(attempt_files::kDigest);
    }
    if (pol.heartbeatIntervalMs > 0.0) {
        a.push_back("--metrics-out");
        a.push_back(attempt_files::kMetrics);
        a.push_back("--metrics-interval-ms");
        a.push_back(fmtNum(pol.heartbeatIntervalMs));
    }
    a.push_back("--stats-out");
    a.push_back(attempt_files::kStats);
    a.push_back("--postmortem-dir");
    a.push_back(attempt_files::kPmDir);
    if (pol.checkpointEveryMs > 0.0) {
        a.push_back("--checkpoint-every-ms");
        a.push_back(fmtNum(pol.checkpointEveryMs));
    }
    for (const auto &x : spec.extraArgs)
        a.push_back(x);
    return a;
}

/** One worker seat: at most one running attempt. */
struct FleetSupervisor::Slot
{
    bool active = false;
    std::size_t jobIdx = FleetScheduler::npos;
    std::string dir; ///< the attempt directory
    double startMs = 0.0;

    /** @{ heartbeat tracking */
    long lastSize = -1;      ///< newest observed CSV size
    double lastBeatMs = 0.0; ///< wall time the CSV last changed
    /** @} */

    bool chaosKilled = false;
    bool hangKilled = false;

    WorkerProcess proc;
};

FleetSupervisor::FleetSupervisor(JobSpec spec, FleetOptions opt)
    : _spec(std::move(spec)), _opt(std::move(opt)),
      _sched(_spec.jobs, _spec.fleet)
{
}

FleetSupervisor::~FleetSupervisor() = default;

void
FleetSupervisor::launch(Slot &slot, std::size_t jobIdx, double nowMs)
{
    const JobProgress &p = _sched.job(jobIdx);
    const bool resume = p.resumeNext;
    std::vector<std::string> args = workerArgs(_spec, p.job);
    if (resume) {
        // The committed ring checkpoint, by absolute path: the worker
        // runs inside its attempt directory.
        args.push_back("--restore");
        args.push_back(
            fs::absolute(shardPaths(_opt.outDir, p.job.id).checkpoint)
                .string());
    }

    slot = Slot();
    slot.dir = attemptDir(_opt.outDir, p.job.id, p.attempts);
    std::string err;
    if (!slot.proc.start(_opt.vipSimPath, slot.dir, args, &err)) {
        // A job that cannot start burns the attempt like any other
        // failure, so it fails alone and the sweep moves on.
        failAttempt(jobIdx, nowMs, 0.0, "launch failed: " + err, resume,
                    "");
        return;
    }
    slot.active = true;
    slot.jobIdx = jobIdx;
    slot.startMs = nowMs;
    slot.lastBeatMs = nowMs;

    _journal.event(nowMs, "launch")
        .str("job", p.job.id)
        .u64("attempt", static_cast<std::uint64_t>(p.attempts))
        .b("resume", resume)
        .str("state", jobStateName(p.state));
}

bool
FleetSupervisor::commitArtifacts(const std::string &jobId, int attempt,
                                 bool success, std::string *err)
{
    const ShardPaths paths = shardPaths(_opt.outDir, jobId);
    const std::string dir = attemptDir(_opt.outDir, jobId, attempt);
    std::error_code ec;
    fs::create_directories(paths.pmDir, ec);
    if (ec) {
        *err = "cannot create " + paths.pmDir + ": " + ec.message();
        return false;
    }

    auto commit = [&](const char *name, const std::string &dst) {
        const std::string src = dir + "/" + name;
        return !fileExists(src) || copyFileAtomic(src, dst, err);
    };
    // The checkpoint commits on success *and* failure: a crashed
    // attempt's ring is exactly what the retry resumes from.
    if (!commit(attempt_files::kCheckpoint, paths.checkpoint))
        return false;
    if (success) {
        if (!commit(attempt_files::kStats, paths.statsJson) ||
            !commit(attempt_files::kMetrics, paths.metricsCsv) ||
            !commit(attempt_files::kDigest, paths.digest))
            return false;
    }

    // Append this attempt's worker output to the one canonical log
    // stream (informational).
    std::ofstream log(paths.log, std::ios::app);
    if (log) {
        log << "=== attempt " << attempt << " ===\n";
        std::ifstream in(dir + "/" + attempt_files::kLog,
                         std::ios::binary);
        if (in)
            log << in.rdbuf();
    }
    return true;
}

void
FleetSupervisor::failAttempt(std::size_t jobIdx, double nowMs,
                             double elapsedMs, const std::string &why,
                             bool canResume,
                             const std::string &commitError)
{
    const JobProgress &p = _sched.job(jobIdx);
    _sched.onFailure(jobIdx, nowMs, canResume);
    auto r = _journal.event(nowMs, "job_fail");
    r.str("job", p.job.id)
        .u64("attempt", static_cast<std::uint64_t>(p.attempts))
        .str("why", why)
        .num("elapsed_ms", elapsedMs);
    if (!commitError.empty())
        r.str("commit_error", commitError);
    r.b("will_resume", p.resumeNext).str("state", jobStateName(p.state));
}

void
FleetSupervisor::settleAttempt(Slot &slot, double nowMs,
                               const WorkerExit &ex)
{
    const JobProgress &p = _sched.job(slot.jobIdx);
    const double elapsedMs = nowMs - slot.startMs;
    auto produced = [&](const char *name) {
        return fileExists(slot.dir + "/" + name);
    };
    const bool results = produced(attempt_files::kStats) &&
                         (!_spec.fleet.digests ||
                          produced(attempt_files::kDigest));
    std::string err;
    if (ex.ok && results) {
        if (!commitArtifacts(p.job.id, p.attempts, true, &err))
            fatal("fleet: cannot commit the artifacts of ", p.job.id,
                  ": ", err);
        _sched.onSuccess(slot.jobIdx);
        auto r = _journal.event(nowMs, "commit");
        r.str("job", p.job.id)
            .u64("attempt", static_cast<std::uint64_t>(p.attempts))
            .num("elapsed_ms", elapsedMs);
        std::ifstream sf(shardPaths(_opt.outDir, p.job.id).statsJson);
        try {
            const StatsFile f = parseStatsJson(sf);
            if (const StatEntry *e = f.find("sim.steady.tick"))
                r.num("steady_tick_ms", e->value);
        } catch (const SimFatal &) {
            // Informational only: the report excludes a malformed
            // stats file from the aggregate.
        }
        r.str("state", jobStateName(p.state));
        return;
    }

    std::string why = ex.error;
    if (slot.chaosKilled && ex.termSignal != 0)
        why = "chaos SIGKILL (injected)";
    else if (slot.hangKilled)
        why = "hung (no heartbeat), killed";
    else if (ex.ok)
        why = std::string("worker succeeded but ") +
              (produced(attempt_files::kStats) ? attempt_files::kDigest
                                               : attempt_files::kStats) +
              " was not produced";
    // The retry resumes from this attempt's ring, once committed.
    const bool committed =
        commitArtifacts(p.job.id, p.attempts, false, &err);
    failAttempt(slot.jobIdx, nowMs, elapsedMs, why,
                committed && produced(attempt_files::kCheckpoint),
                committed ? "" : err);
}

void
FleetSupervisor::watch(Slot &slot, double nowMs)
{
    const FleetPolicy &pol = _spec.fleet;
    const JobProgress &p = _sched.job(slot.jobIdx);
    const std::string csv = slot.dir + "/" + attempt_files::kMetrics;
    const long size = fileSize(csv);
    if (size >= 0 && size != slot.lastSize) {
        slot.lastSize = size;
        slot.lastBeatMs = nowMs;
        const double tickMs = size > 0 ? readLastTickMs(csv) : -1.0;
        _journal.event(nowMs, "heartbeat")
            .str("job", p.job.id)
            .u64("attempt", static_cast<std::uint64_t>(p.attempts))
            .num("tick_ms", tickMs)
            .u64("size", static_cast<std::uint64_t>(size));

        // Chaos injection keys on *simulated* progress so a ring
        // checkpoint older than the kill point provably exists.
        if (!_chaosFired && p.job.id == _opt.killJobId &&
            p.attempts == 1 && tickMs >= _opt.killAtSimMs) {
            _chaosFired = true;
            slot.chaosKilled = true;
            slot.proc.signal(SIGKILL);
            _journal.event(nowMs, "chaos_kill")
                .str("job", p.job.id)
                .u64("attempt", static_cast<std::uint64_t>(p.attempts))
                .num("tick_ms", tickMs);
        }
    }

    if (pol.heartbeatDeadlineMs > 0.0 && pol.heartbeatIntervalMs > 0.0 &&
        !slot.hangKilled && !slot.chaosKilled &&
        nowMs - slot.startMs > pol.heartbeatGraceMs &&
        nowMs - slot.lastBeatMs > pol.heartbeatDeadlineMs) {
        slot.hangKilled = true;
        slot.proc.signal(SIGKILL);
        _journal.event(nowMs, "hang_kill")
            .str("job", p.job.id)
            .u64("attempt", static_cast<std::uint64_t>(p.attempts))
            .num("silent_ms", nowMs - slot.lastBeatMs);
    }
}

void
FleetSupervisor::pollSlot(Slot &slot, double nowMs)
{
    if (!slot.active)
        return;
    WorkerExit ex;
    if (!slot.proc.reap(&ex)) {
        watch(slot, nowMs);
        return;
    }
    settleAttempt(slot, nowMs, ex);
    slot = Slot();
}

FoldedSweep
FleetSupervisor::run()
{
    if (_opt.outDir.empty())
        fatal("fleet: no output directory");
    std::error_code ec;
    fs::create_directories(_opt.outDir + "/shards", ec);
    if (ec)
        fatal("cannot create ", _opt.outDir, ": ", ec.message());
    if (::access(_opt.vipSimPath.c_str(), X_OK) != 0)
        fatal("fleet: worker binary ", _opt.vipSimPath,
              " is not executable: ", std::strerror(errno));

    _slots.resize(static_cast<std::size_t>(_spec.fleet.workers));
    const std::string journalPath = _opt.outDir + "/journal.jsonl";
    _journal.open(journalPath, _opt.verbose);

    const auto t0 = std::chrono::steady_clock::now();
    auto nowMs = [&t0]() {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    _journal.event(nowMs(), "sweep_start")
        .str("name", _spec.name)
        .num("seconds", _spec.seconds)
        .u64("jobs", _spec.jobs.size())
        .u64("workers", _slots.size());
    for (const FleetJob &j : _spec.jobs) {
        auto r = _journal.event(nowMs(), "job");
        r.str("job", j.id)
            .str("config", j.config)
            .str("workload", j.workload)
            .u64("seed", j.seed);
        if (!j.faultPlan.empty())
            r.str("fault_plan", j.faultPlan);
    }

    bool interrupted = false;
    while (true) {
        const double now = nowMs();
        if (!interrupted && _opt.stopFlag &&
            _opt.stopFlag->load(std::memory_order_relaxed) != 0) {
            interrupted = true;
            _journal.event(now, "interrupt");
            for (Slot &slot : _slots)
                slot.proc.signal(SIGTERM);
        }

        bool anyActive = false;
        for (Slot &slot : _slots) {
            pollSlot(slot, now);
            if (!slot.active && !interrupted) {
                const std::size_t idx = _sched.claimNext(now);
                if (idx != FleetScheduler::npos)
                    launch(slot, idx, now);
            }
            anyActive = anyActive || slot.active;
        }
        if (!anyActive && (interrupted || _sched.allSettled()))
            break;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kPollMs));
    }
    _journal.event(nowMs(), "sweep_end");

    // The journal is the sweep's one record: the report is its fold,
    // and the fold must tell every job's state and attempt count
    // exactly as the scheduler decided them.
    std::ifstream in(journalPath);
    FoldedSweep out = foldJournal(in);
    vip_assert(out.jobs.size() == _sched.jobs().size(),
               "journal declares ", out.jobs.size(), " jobs, not ",
               _sched.jobs().size());
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
        const FoldedJob &f = out.jobs[i];
        const JobProgress &p = _sched.job(i);
        vip_assert(f.job.id == p.job.id && f.state == p.state &&
                       f.attempts == p.attempts,
                   "journal fold disagrees with the scheduler on ",
                   p.job.id, ": ", jobStateName(f.state), "/",
                   f.attempts, " vs ", jobStateName(p.state), "/",
                   p.attempts);
    }
    writeFleetReport(_opt.outDir, out, _spec.fleet);
    return out;
}

void
writeFleetReport(const std::string &outDir, const FoldedSweep &out,
                 const FleetPolicy &pol)
{
    // Aggregate every completed shard's committed stats.json.
    std::vector<StatsFile> parsed;
    parsed.reserve(out.jobs.size());
    std::vector<const StatsFile *> shards;
    for (const FoldedJob &j : out.jobs) {
        if (j.state != JobState::Done)
            continue;
        const ShardPaths paths = shardPaths(outDir, j.job.id);
        std::ifstream in(paths.statsJson);
        if (!in) {
            warn("fleet: ", j.job.id, ": done but ", paths.statsJson,
                 " is unreadable; excluded from the aggregate");
            continue;
        }
        try {
            parsed.push_back(parseStatsJson(in));
        } catch (const std::exception &e) {
            warn("fleet: ", j.job.id, ": stats.json rejected (",
                 e.what(), "); excluded from the aggregate");
        }
    }
    for (const StatsFile &f : parsed)
        shards.push_back(&f);

    std::ostringstream os;
    os << "{\n"
       << "  \"kind\": \"vip-fleet-report\",\n"
       << "  \"schemaVersion\": 4,\n"
       << "  \"name\": " << json::quoted(out.name) << ",\n"
       << "  \"seconds\": " << fmtNum(out.seconds) << ",\n"
       << "  \"interrupted\": "
       << (out.interrupted ? "true" : "false") << ",\n";
    os << "  \"policy\": {\n"
       << "    \"workers\": " << pol.workers << ",\n"
       << "    \"max_attempts\": " << pol.maxAttempts << ",\n"
       << "    \"backoff_base_ms\": " << fmtNum(pol.backoffBaseMs)
       << ",\n"
       << "    \"backoff_cap_ms\": " << fmtNum(pol.backoffCapMs)
       << ",\n"
       << "    \"heartbeat_deadline_ms\": "
       << fmtNum(pol.heartbeatDeadlineMs) << ",\n"
       << "    \"heartbeat_interval_ms\": "
       << fmtNum(pol.heartbeatIntervalMs) << ",\n"
       << "    \"heartbeat_grace_ms\": "
       << fmtNum(pol.heartbeatGraceMs) << ",\n"
       << "    \"checkpoint_every_ms\": "
       << fmtNum(pol.checkpointEveryMs) << ",\n"
       << "    \"resume\": " << (pol.resume ? "true" : "false")
       << "\n  },\n";
    os << "  \"summary\": {\n"
       << "    \"jobs\": " << out.jobs.size() << ",\n"
       << "    \"done\": " << out.done << ",\n"
       << "    \"failed\": " << out.failed << ",\n"
       << "    \"retries\": " << out.retries << ",\n"
       << "    \"resumes\": " << out.resumes << ",\n"
       << "    \"hang_kills\": " << out.hangKills << ",\n"
       << "    \"aggregated_shards\": " << shards.size()
       << "\n  },\n";

    auto jobJson = [&os](const FoldedJob &j, bool failedOnly) {
        os << "    {\n"
           << "      \"id\": " << json::quoted(j.job.id) << ",\n"
           << "      \"config\": " << json::quoted(j.job.config)
           << ",\n"
           << "      \"workload\": " << json::quoted(j.job.workload)
           << ",\n"
           << "      \"seed\": " << j.job.seed << ",\n";
        if (!j.job.faultPlan.empty())
            os << "      \"fault_plan\": "
               << json::quoted(j.job.faultPlan) << ",\n";
        os << "      \"state\": \"" << jobStateName(j.state)
           << "\",\n"
           << "      \"attempts\": " << j.attempts << ",\n"
           << "      \"resumed\": " << (j.resumed ? "true" : "false")
           << ",\n";
        if (j.steadyTickMs >= 0.0)
            os << "      \"steady_tick_ms\": " << fmtNum(j.steadyTickMs)
               << ",\n";
        os << "      \"wall_ms\": " << fmtNum(j.wallMs);
        if (!failedOnly && j.state == JobState::Done)
            os << ",\n      \"stats\": "
               << json::quoted("shards/" + j.job.id + "/stats.json");
        if (!j.lastError.empty())
            os << ",\n      \"last_error\": "
               << json::quoted(j.lastError);
        if (!j.history.empty()) {
            os << ",\n      \"history\": [";
            for (std::size_t i = 0; i < j.history.size(); ++i)
                os << (i ? ", " : "") << json::quoted(j.history[i]);
            os << "]";
        }
        os << "\n    }";
    };

    os << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
        jobJson(out.jobs[i], false);
        os << (i + 1 < out.jobs.size() ? ",\n" : "\n");
    }
    os << "  ],\n";

    os << "  \"failed_jobs\": [\n";
    bool first = true;
    for (const FoldedJob &j : out.jobs) {
        if (j.state != JobState::Failed)
            continue;
        if (!first)
            os << ",\n";
        first = false;
        jobJson(j, true);
    }
    os << (first ? "" : "\n") << "  ]\n}\n";

    std::string err;
    const std::string reportPath = outDir + "/report.json";
    if (!writeFileAtomic(reportPath, os.str(), &err))
        fatal("cannot write ", reportPath, ": ", err);

    std::ostringstream as;
    writeAggregateDocument(as, aggregateStats(shards), shards.size(),
                           out.name);
    if (!writeFileAtomic(outDir + "/aggregate.json", as.str(), &err))
        fatal("cannot write ", outDir, "/aggregate.json: ", err);
}

} // namespace fleet
} // namespace vip
