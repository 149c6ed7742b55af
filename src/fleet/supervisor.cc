#include "fleet/supervisor.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "fleet/transport/faulty_transport.hh"
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

bool
hasArtifact(const ArtifactManifest &m, const char *name)
{
    const Artifact *a = findArtifact(m, name);
    return a && a->present;
}

/** Done jobs whose newest attempt ran on @p host.  Committing needs
 *  the job's current fencing token, so that attempt is the one that
 *  produced the shard — live or rescued zombie alike. */
std::size_t
jobsDoneOn(const std::vector<JobProgress> &jobs, const std::string &host)
{
    std::size_t n = 0;
    for (const JobProgress &p : jobs)
        n += p.state == JobState::Done && p.host == host ? 1 : 0;
    return n;
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
           std::uint64_t token)
{
    return outDir + "/shards/" + jobId + "/a" +
           std::to_string(token);
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

/** One live worker backend plus its health record. */
struct FleetSupervisor::HostRuntime
{
    HostSpec spec;
    std::unique_ptr<WorkerTransport> transport;
    HostHealth health;
    FaultyTransport *faulty = nullptr; ///< non-owning, when wrapped

    HostRuntime(HostSpec s, std::unique_ptr<WorkerTransport> t,
                HealthPolicy hp)
        : spec(std::move(s)), transport(std::move(t)), health(hp)
    {
    }
};

/** One worker seat: at most one running attempt. */
struct FleetSupervisor::Slot
{
    bool active = false;
    std::size_t hostIdx = 0;
    std::size_t jobIdx = FleetScheduler::npos;
    std::uint64_t token = 0;
    double startMs = 0.0;

    /** @{ heartbeat tracking */
    long lastSize = -1;      ///< newest observed CSV size
    double lastBeatMs = 0.0; ///< wall time the CSV last changed
    double lastTickMs = -1.0;     ///< newest simulated progress
    double lastTickWallMs = -1.0; ///< transport stamp of that sample
    double simRate = 0.0;    ///< sim ms per wall second (smoothed)
    /** Recent simRate observations, newest last (bounded); the
     *  per-shard throughput window fleet-status.json publishes and
     *  vip_top renders as a sparkline. */
    std::deque<double> rateWindow;
    /** @} */

    bool chaosKilled = false;
    bool hangKilled = false;

    bool exited = false;     ///< worker done; fetching artifacts
    PollResult exitResult;
    int fetchAttempts = 0;

    std::unique_ptr<WorkerHandle> handle;

    /** Free the seat (reaping any handle left) but keep its host. */
    void
    vacate()
    {
        Slot empty;
        empty.hostIdx = hostIdx;
        *this = std::move(empty);
    }
};

FleetSupervisor::FleetSupervisor(JobSpec spec, FleetOptions opt)
    : _spec(std::move(spec)), _opt(std::move(opt)),
      _sched(_spec.jobs, _spec.fleet)
{
}

FleetSupervisor::~FleetSupervisor() = default;

void
FleetSupervisor::note(const std::string &line) const
{
    if (_opt.verbose)
        std::fprintf(stderr, "[fleet] %s\n", line.c_str());
}

void
FleetSupervisor::buildHosts()
{
    std::vector<HostSpec> roster = _opt.hosts;
    if (roster.empty()) {
        HostSpec local;
        local.name = "local";
        local.transport = "process";
        local.slots = _spec.fleet.workers;
        roster.push_back(std::move(local));
    }

    HealthPolicy hp;
    hp.quarantineAfter = _spec.fleet.quarantineAfter;
    hp.probeIntervalMs = _spec.fleet.probeIntervalMs;
    hp.maxProbes = _spec.fleet.maxProbes;
    hp.maxQuarantines = _spec.fleet.maxQuarantines;

    for (HostSpec &hs : roster) {
        if (hs.transport == "process" || hs.transport == "ssh") {
            if (_opt.vipSimPath.empty())
                fatal("fleet: host ", hs.name, " (", hs.transport,
                      ") needs the vip_sim path");
        }
        if (hs.transport == "process" &&
            ::access(_opt.vipSimPath.c_str(), X_OK) != 0)
            fatal("fleet: worker binary ", _opt.vipSimPath,
                  " is not executable: ", std::strerror(errno));
        std::string err;
        auto t = makeTransport(hs, _opt.vipSimPath, _opt.faultSpec,
                               &err);
        if (!t)
            fatal("fleet: host ", hs.name, ": ", err);
        _hosts.emplace_back(hs, std::move(t), hp);
        _hosts.back().faulty =
            dynamic_cast<FaultyTransport *>(
                _hosts.back().transport.get());
        for (int k = 0; k < hs.slots; ++k) {
            Slot s;
            s.hostIdx = _hosts.size() - 1;
            _slots.push_back(std::move(s));
        }
    }
}

bool
FleetSupervisor::hostUsable(std::size_t hostIdx) const
{
    return _hosts[hostIdx].health.usable();
}

void
FleetSupervisor::hostOpFailure(std::size_t hostIdx, double nowMs,
                               const std::string &detail)
{
    HostRuntime &h = _hosts[hostIdx];
    if (!h.health.onOpFailure(nowMs, detail))
        return;
    if (h.health.state() == HostState::Dead) {
        _journal.event(nowMs, "host_dead")
            .str("host", h.spec.name)
            .u64("quarantines",
                 static_cast<std::uint64_t>(h.health.quarantines()))
            .str("error", detail);
        note("host " + h.spec.name + ": dead (flapped through " +
             std::to_string(h.health.quarantines() - 1) +
             " quarantines): " + detail);
    } else {
        _journal.event(nowMs, "quarantine")
            .str("host", h.spec.name)
            .str("error", detail);
        note("host " + h.spec.name + ": quarantined after " +
             std::to_string(_spec.fleet.quarantineAfter) +
             " consecutive transport failures: " + detail);
    }
}

void
FleetSupervisor::probeQuarantined(double nowMs)
{
    for (HostRuntime &h : _hosts) {
        if (!h.health.probeDue(nowMs))
            continue;
        std::string err;
        if (h.transport->probe(&err)) {
            h.health.onProbeSuccess();
            _journal.event(nowMs, "probe")
                .str("host", h.spec.name)
                .b("ok", true)
                .b("readmitted", true);
            note("host " + h.spec.name +
                 ": probe answered; re-admitted");
        } else if (h.health.onProbeFailure(nowMs, err)) {
            _journal.event(nowMs, "probe")
                .str("host", h.spec.name)
                .b("ok", false)
                .str("error", err);
            _journal.event(nowMs, "host_dead")
                .str("host", h.spec.name)
                .str("error", err);
            note("host " + h.spec.name + ": dead (" +
                 std::to_string(_spec.fleet.maxProbes) +
                 " re-admission probes failed): " + err);
        } else {
            _journal.event(nowMs, "probe")
                .str("host", h.spec.name)
                .b("ok", false)
                .str("error", err);
            note("host " + h.spec.name + ": probe failed (" + err +
                 "); still quarantined");
        }
    }
}

void
FleetSupervisor::launch(Slot &slot, std::size_t jobIdx, double nowMs)
{
    const JobProgress &p = _sched.job(jobIdx);
    HostRuntime &h = _hosts[slot.hostIdx];
    const ShardPaths paths = shardPaths(_opt.outDir, p.job.id);
    const bool resume = p.resumeNext;

    LaunchRequest req;
    req.jobId = p.job.id;
    req.token = p.token;
    req.attemptDir = attemptDir(_opt.outDir, p.job.id, p.token);
    req.args = workerArgs(_spec, p.job);
    req.restoreFrom = resume ? paths.checkpoint : "";

    std::string err;
    auto handle = h.transport->launch(req, &err);
    if (!handle) {
        // The worker never started: hand the claim back untouched
        // (no attempt burned, no zombie possible) and score the
        // host.
        _journal.event(nowMs, "launch_fail")
            .str("job", p.job.id)
            .str("host", h.spec.name)
            .str("error", err);
        _sched.releaseClaim(jobIdx);
        hostOpFailure(slot.hostIdx, nowMs,
                      "launch " + p.job.id + ": " + err);
        return;
    }
    h.health.onOpSuccess();

    slot.vacate();
    slot.active = true;
    slot.jobIdx = jobIdx;
    slot.token = p.token;
    slot.startMs = nowMs;
    slot.lastBeatMs = nowMs;
    slot.handle = std::move(handle);

    if (resume)
        ++_resumes;
    _journal.event(nowMs, "launch")
        .str("job", p.job.id)
        .u64("token", p.token)
        .u64("attempt", static_cast<std::uint64_t>(p.attempts))
        .str("host", h.spec.name)
        .b("resume", resume);
    note(p.job.id + ": attempt " + std::to_string(p.attempts) +
         " on " + h.spec.name +
         (resume ? " (resuming from " + paths.checkpoint + ")" : ""));
}

bool
FleetSupervisor::commitArtifacts(const std::string &jobId,
                                 const ArtifactManifest &m,
                                 bool success, int attempt,
                                 std::string *err)
{
    const ShardPaths paths = shardPaths(_opt.outDir, jobId);
    std::error_code ec;
    fs::create_directories(paths.pmDir, ec);
    if (ec) {
        if (err)
            *err = "cannot create " + paths.pmDir + ": " +
                   ec.message();
        return false;
    }

    auto commit = [&](const char *name, const std::string &dst) {
        const Artifact *a = findArtifact(m, name);
        if (!a || !a->present)
            return true;
        return copyFileAtomicVerified(a->localPath, dst, a->fnv,
                                      err);
    };

    // The checkpoint commits on success *and* failure: a crashed
    // attempt's ring is exactly what the retry resumes from,
    // possibly on a different host.
    if (!commit(attempt_files::kCheckpoint, paths.checkpoint))
        return false;
    if (success) {
        if (!commit(attempt_files::kStats, paths.statsJson) ||
            !commit(attempt_files::kMetrics, paths.metricsCsv) ||
            !commit(attempt_files::kDigest, paths.digest))
            return false;
    }

    // Append this attempt's worker output to the one canonical log
    // stream (informational; not checksum-gated).
    const Artifact *lg = findArtifact(m, attempt_files::kLog);
    std::ofstream log(paths.log, std::ios::app);
    if (log) {
        log << "=== attempt " << attempt << " ===\n";
        if (lg && lg->present) {
            std::ifstream in(lg->localPath, std::ios::binary);
            log << in.rdbuf();
        }
    }
    return true;
}

bool
FleetSupervisor::produced(const ArtifactManifest &m) const
{
    return hasArtifact(m, attempt_files::kStats) &&
           (!_spec.fleet.digests ||
            hasArtifact(m, attempt_files::kDigest));
}

bool
FleetSupervisor::fetchVerified(Slot &slot, ArtifactManifest *m,
                               std::string *err)
{
    if (!_hosts[slot.hostIdx].transport->fetch(*slot.handle, m, err))
        return false;
    // Verify the local bytes against the source manifest before
    // anything is accepted or committed: a corrupted or torn fetch
    // must read as a fetch failure, not a result.
    for (const Artifact &a : *m) {
        if (!a.present)
            continue;
        bool readable = false;
        if (fnv1aFile(a.localPath, &readable) != a.fnv || !readable) {
            *err = "artifact " + a.name +
                   " failed checksum verification";
            return false;
        }
    }
    return true;
}

void
FleetSupervisor::settleAttempt(Slot &slot, double nowMs,
                               const ArtifactManifest &m)
{
    const std::size_t idx = slot.jobIdx;
    const double elapsed = nowMs - slot.startMs;
    HostRuntime &h = _hosts[slot.hostIdx];
    const JobProgress &p = _sched.job(idx);
    const std::string id = p.job.id;
    const int attempt = p.attempts;

    if (slot.exitResult.ok && produced(m)) {
        if (_sched.acceptSuccess(idx, slot.token, elapsed)) {
            std::string err;
            if (!commitArtifacts(id, m, true, attempt, &err))
                fatal("fleet: cannot commit accepted artifacts of ",
                      id, ": ", err);
            // Surface the shard's steady-state verdict (if its
            // stats carry one) into fleet-status.json.
            if (_jobSteadyTickMs.size() < _sched.jobs().size())
                _jobSteadyTickMs.resize(_sched.jobs().size(), -1.0);
            const ShardPaths paths = shardPaths(_opt.outDir, id);
            std::ifstream sf(paths.statsJson);
            if (sf) {
                try {
                    StatsFile f = parseStatsJson(sf);
                    if (const StatEntry *e =
                            f.find("sim.steady.tick"))
                        _jobSteadyTickMs[idx] = e->value;
                } catch (const SimFatal &) {
                    // Informational only; a malformed stats file
                    // already failed digest/stats gates elsewhere.
                }
            }
            _journal.event(nowMs, "commit")
                .str("job", id)
                .u64("token", slot.token)
                .u64("attempt", static_cast<std::uint64_t>(attempt))
                .str("host", h.spec.name)
                .num("job_wall_ms", elapsed);
            note(id + ": done (" + fmtNum(elapsed) + " wall ms)");
        } else {
            _journal.event(nowMs, "stale_reject")
                .str("job", id)
                .u64("token", slot.token);
            note(id + ": result rejected (stale fencing token); "
                 "not merged");
        }
    } else {
        std::string why;
        if (slot.chaosKilled && slot.exitResult.termSignal != 0)
            why = "chaos SIGKILL (injected)";
        else if (slot.hangKilled)
            why = "hung (no heartbeat), killed";
        else if (slot.exitResult.ok)
            why = std::string("worker succeeded but ") +
                  (hasArtifact(m, attempt_files::kStats)
                       ? attempt_files::kDigest
                       : attempt_files::kStats) +
                  " was not produced";
        else
            why = slot.exitResult.error.empty()
                      ? "failed"
                      : slot.exitResult.error;
        const bool canResume =
            hasArtifact(m, attempt_files::kCheckpoint);
        if (_sched.acceptFailure(idx, slot.token, nowMs, elapsed,
                                 why, canResume)) {
            std::string err;
            if (!commitArtifacts(id, m, false, attempt, &err))
                note(id + ": checkpoint commit failed: " + err);
            const JobProgress &q = _sched.job(idx);
            _journal.event(nowMs, "job_fail")
                .str("job", id)
                .u64("token", slot.token)
                .u64("attempt", static_cast<std::uint64_t>(attempt))
                .str("host", h.spec.name)
                .str("why", why)
                .str("next_state", jobStateName(q.state))
                .b("will_resume", q.resumeNext);
            note(id + ": " + why + " -> " + jobStateName(q.state) +
                 (q.state == JobState::Backoff
                      ? (q.resumeNext ? " (will resume)"
                                      : " (will restart)")
                      : ""));
        }
    }
}

void
FleetSupervisor::tryFetch(Slot &slot, double nowMs)
{
    HostRuntime &h = _hosts[slot.hostIdx];
    const std::size_t idx = slot.jobIdx;
    ArtifactManifest m;
    std::string err;
    if (fetchVerified(slot, &m, &err)) {
        h.health.onOpSuccess();
        _sched.renewLease(idx, nowMs);
        settleAttempt(slot, nowMs, m);
        slot.vacate();
        return;
    }
    const std::string id = _sched.job(idx).job.id;
    hostOpFailure(slot.hostIdx, nowMs, "fetch " + id + ": " + err);
    if (++slot.fetchAttempts < _spec.fleet.fetchRetries)
        return;
    const std::string why = "artifact fetch failed after " +
                            std::to_string(slot.fetchAttempts) +
                            " attempts: " + err;
    _journal.event(nowMs, "fetch_fail")
        .str("job", id)
        .u64("token", slot.token)
        .str("host", h.spec.name)
        .str("error", err);
    if (_sched.acceptFailure(idx, slot.token, nowMs,
                             nowMs - slot.startMs, why, false))
        note(id + ": " + why);
    slot.vacate();
}

void
FleetSupervisor::pollSlot(Slot &slot, double nowMs)
{
    if (!slot.active)
        return;
    HostRuntime &h = _hosts[slot.hostIdx];
    const FleetPolicy &pol = _spec.fleet;
    const JobProgress &p = _sched.job(slot.jobIdx);

    if (!slot.exited) {
        const PollResult pr = h.transport->poll(*slot.handle);
        if (pr.state == WorkerState::Unreachable) {
            hostOpFailure(slot.hostIdx, nowMs,
                          "poll " + p.job.id + ": " + pr.error);
            return; // no lease renewal: expiry reassigns the job
        }
        h.health.onOpSuccess();
        if (pr.state == WorkerState::Running) {
            _sched.renewLease(slot.jobIdx, nowMs);

            HeartbeatInfo hb;
            std::string err;
            if (!h.transport->heartbeat(*slot.handle, &hb, &err)) {
                hostOpFailure(slot.hostIdx, nowMs,
                              "heartbeat " + p.job.id + ": " + err);
            } else {
                h.health.onOpSuccess();
                if (hb.size >= 0 && hb.size != slot.lastSize) {
                    slot.lastSize = hb.size;
                    slot.lastBeatMs = nowMs;
                    _sched.renewLease(slot.jobIdx, nowMs);

                    // Per-worker rate from the transport's own
                    // sample stamps (a cached remote observation
                    // keeps its original stamp).
                    if (hb.tickMs >= 0.0 && hb.wallMs >= 0.0) {
                        if (slot.lastTickMs >= 0.0 &&
                            hb.wallMs > slot.lastTickWallMs) {
                            slot.simRate =
                                (hb.tickMs - slot.lastTickMs) /
                                ((hb.wallMs - slot.lastTickWallMs) /
                                 1000.0);
                            slot.rateWindow.push_back(slot.simRate);
                            if (slot.rateWindow.size() > 16)
                                slot.rateWindow.pop_front();
                        }
                        slot.lastTickMs = hb.tickMs;
                        slot.lastTickWallMs = hb.wallMs;
                    }
                    _journal.event(nowMs, "heartbeat")
                        .str("job", p.job.id)
                        .u64("token", slot.token)
                        .str("host", h.spec.name)
                        .num("tick_ms", hb.tickMs)
                        .u64("size",
                             static_cast<std::uint64_t>(hb.size))
                        .b("lease_renewed", true);

                    // Chaos injection keys on *simulated* progress
                    // so a ring checkpoint older than the kill point
                    // provably exists.
                    if (!_chaosFired && !_opt.killJobId.empty() &&
                        p.job.id == _opt.killJobId &&
                        p.attempts == 1 &&
                        hb.tickMs >= _opt.killAtSimMs) {
                        _chaosFired = true;
                        slot.chaosKilled = true;
                        h.transport->forceKill(*slot.handle);
                        _journal.event(nowMs, "chaos_kill")
                            .str("job", p.job.id)
                            .u64("token", slot.token)
                            .num("tick_ms", hb.tickMs);
                        note(p.job.id + ": chaos SIGKILL at " +
                             fmtNum(hb.tickMs) + " simulated ms");
                    }
                }
            }

            if (pol.heartbeatDeadlineMs > 0.0 &&
                pol.heartbeatIntervalMs > 0.0 && !slot.hangKilled &&
                !slot.chaosKilled &&
                nowMs - slot.startMs > pol.heartbeatGraceMs &&
                nowMs - slot.lastBeatMs > pol.heartbeatDeadlineMs) {
                slot.hangKilled = true;
                ++_hangKills;
                h.transport->forceKill(*slot.handle);
                _journal.event(nowMs, "hang_kill")
                    .str("job", p.job.id)
                    .u64("token", slot.token)
                    .str("host", h.spec.name)
                    .num("silent_ms", nowMs - slot.lastBeatMs);
                note(p.job.id + ": no heartbeat for " +
                     fmtNum(nowMs - slot.lastBeatMs) +
                     " wall ms; killed as hung");
            }
            return;
        }
        // Exited: remember the verdict and move to the fetch phase.
        slot.exited = true;
        slot.exitResult = pr;
        _sched.renewLease(slot.jobIdx, nowMs);
    }
    tryFetch(slot, nowMs);
}

void
FleetSupervisor::expireLease(Slot &slot, double nowMs)
{
    const std::size_t idx = slot.jobIdx;
    HostRuntime &h = _hosts[slot.hostIdx];
    const JobProgress &p = _sched.job(idx);
    const ShardPaths paths = shardPaths(_opt.outDir, p.job.id);
    const std::string why =
        "lease expired after " + fmtNum(_spec.fleet.leaseMs) +
        " ms on host " + h.spec.name +
        (h.health.lastError().empty()
             ? ""
             : " (" + h.health.lastError() + ")");
    // Resume eligibility comes from the canonical checkpoint (a
    // previously committed attempt): the zombie's own ring is out of
    // reach until — unless — it is fetched and rescued later.
    const bool canResume = fileExists(paths.checkpoint);
    _sched.onLeaseExpired(idx, nowMs, nowMs - slot.startMs, why,
                          canResume);
    _journal.event(nowMs, "lease_expiry")
        .str("job", p.job.id)
        .u64("token", slot.token)
        .str("host", h.spec.name)
        .b("can_resume", canResume);
    note(p.job.id + ": " + why + "; reassigning (attempt's fencing "
         "token " + std::to_string(slot.token) + " retired to "
         "zombie)");

    _zombies.push_back(std::move(slot));
    slot.vacate();
}

void
FleetSupervisor::pollZombies(double nowMs)
{
    for (std::size_t zi = 0; zi < _zombies.size();) {
        Slot &z = _zombies[zi];
        if (!z.exited) {
            // Running, or still partitioned: keep waiting (bounded by
            // the drain grace once the sweep settles).
            const PollResult pr =
                _hosts[z.hostIdx].transport->poll(*z.handle);
            if (pr.state != WorkerState::Exited) {
                ++zi;
                continue;
            }
            z.exited = true;
            z.exitResult = pr;
        }

        const std::string id = _sched.job(z.jobIdx).job.id;
        ArtifactManifest m;
        std::string err;
        if (!fetchVerified(z, &m, &err)) {
            if (++z.fetchAttempts < _spec.fleet.fetchRetries) {
                ++zi;
                continue;
            }
            _journal.event(nowMs, "zombie_unfetchable")
                .str("job", id)
                .u64("token", z.token)
                .str("error", err);
            note(id + ": zombie artifacts unfetchable (" + err +
                 "); discarded");
        } else if (z.exitResult.ok && produced(m)) {
            if (_sched.acceptSuccess(z.jobIdx, z.token,
                                     nowMs - z.startMs)) {
                if (!commitArtifacts(id, m, true, 0, &err))
                    fatal("fleet: cannot commit rescued artifacts "
                          "of ", id, ": ", err);
                _journal.event(nowMs, "zombie_rescue")
                    .str("job", id)
                    .u64("token", z.token);
                note(id + ": zombie attempt (token " +
                     std::to_string(z.token) +
                     ") finished and was rescued");
            } else {
                _journal.event(nowMs, "zombie_reject")
                    .str("job", id)
                    .u64("token", z.token);
                note(id + ": zombie result (token " +
                     std::to_string(z.token) +
                     ") rejected by fencing; not merged");
            }
        } else {
            // A zombie's failure adds nothing: its attempt was
            // written off at lease expiry.  Offer it anyway so stale
            // tokens are counted uniformly.
            (void)_sched.acceptFailure(z.jobIdx, z.token, nowMs,
                                       nowMs - z.startMs,
                                       "zombie attempt failed", false);
            _journal.event(nowMs, "zombie_fail")
                .str("job", id)
                .u64("token", z.token);
            note(id + ": zombie attempt (token " +
                 std::to_string(z.token) + ") failed; discarded");
        }
        _zombies.erase(_zombies.begin() + static_cast<long>(zi));
    }
}

void
FleetSupervisor::killZombies()
{
    for (Slot &z : _zombies) {
        note(_sched.job(z.jobIdx).job.id +
             ": zombie attempt (token " + std::to_string(z.token) +
             ") force-killed at drain");
        _hosts[z.hostIdx].transport->forceKill(*z.handle);
    }
    _zombies.clear(); // handle destructors reap what remains
}

void
FleetSupervisor::interruptAll()
{
    for (Slot &slot : _slots)
        if (slot.active)
            _hosts[slot.hostIdx].transport->interrupt(*slot.handle);
    for (Slot &z : _zombies)
        _hosts[z.hostIdx].transport->interrupt(*z.handle);
}

FleetOutcome
FleetSupervisor::run()
{
    if (_opt.outDir.empty())
        fatal("fleet: no output directory");
    std::error_code ec;
    fs::create_directories(_opt.outDir + "/shards", ec);
    if (ec)
        fatal("cannot create ", _opt.outDir, ": ", ec.message());

    buildHosts();
    _journal.open(_opt.outDir + "/journal.jsonl");

    std::size_t totalSlots = 0;
    for (const HostRuntime &h : _hosts)
        totalSlots += static_cast<std::size_t>(h.spec.slots);
    note("sweep '" + _spec.name + "': " +
         std::to_string(_spec.jobs.size()) + " jobs on " +
         std::to_string(totalSlots) + " workers across " +
         std::to_string(_hosts.size()) + " host(s)");

    const auto t0 = std::chrono::steady_clock::now();
    auto nowMs = [&t0]() {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    _journal.event(nowMs(), "sweep_start")
        .str("name", _spec.name)
        .u64("jobs", _spec.jobs.size())
        .u64("hosts", _hosts.size())
        .u64("slots", totalSlots);

    bool interrupted = false;
    double drainStartMs = -1.0;
    while (true) {
        const double now = nowMs();
        if (!interrupted && _opt.stopFlag &&
            _opt.stopFlag->load(std::memory_order_relaxed) != 0) {
            interrupted = true;
            _journal.event(now, "interrupt");
            note("interrupted; draining workers");
            interruptAll();
        }

        probeQuarantined(now);
        for (Slot &slot : _slots)
            pollSlot(slot, now);
        if (!interrupted) {
            for (Slot &slot : _slots)
                if (slot.active &&
                    _sched.leaseExpired(slot.jobIdx, now))
                    expireLease(slot, now);
        }
        pollZombies(now);

        // Terminal degradation: no host left to run anything.
        if (_fatal.empty() && !interrupted) {
            bool allDead = true;
            for (const HostRuntime &h : _hosts)
                if (h.health.state() != HostState::Dead) {
                    allDead = false;
                    break;
                }
            if (allDead) {
                const std::size_t n = _sched.failAllUnsettled(
                    "all hosts dead; job abandoned");
                _fatal = "all " + std::to_string(_hosts.size()) +
                         " host(s) dead; " + std::to_string(n) +
                         " unsettled job(s) abandoned";
                _journal.event(now, "fatal").str("error", _fatal);
                note("FATAL: " + _fatal);
                killZombies();
                for (Slot &slot : _slots) {
                    if (!slot.active)
                        continue;
                    _hosts[slot.hostIdx].transport->forceKill(
                        *slot.handle);
                    slot.vacate();
                }
            }
        }

        if (!interrupted && _fatal.empty()) {
            for (Slot &slot : _slots) {
                if (slot.active || !hostUsable(slot.hostIdx))
                    continue;
                const std::size_t idx = _sched.claimNext(
                    now, _hosts[slot.hostIdx].spec.name);
                if (idx == FleetScheduler::npos)
                    break;
                launch(slot, idx, now);
            }
        }

        bool anyActive = false;
        for (const Slot &slot : _slots)
            if (slot.active)
                anyActive = true;
        const bool settled =
            _sched.allSettled() || interrupted || !_fatal.empty();
        if (settled && !anyActive) {
            if (_zombies.empty())
                break;
            if (drainStartMs < 0.0) {
                drainStartMs = now;
                for (Slot &z : _zombies)
                    _hosts[z.hostIdx].transport->interrupt(
                        *z.handle);
            } else if (now - drainStartMs > _opt.zombieGraceMs) {
                killZombies();
                break;
            }
        } else {
            drainStartMs = -1.0;
        }
        if (_opt.statusIntervalMs > 0.0 &&
            now - _lastStatusMs >= _opt.statusIntervalMs) {
            _lastStatusMs = now;
            writeStatus(now, false);
        }
        std::this_thread::sleep_for(std::chrono::duration<double,
                                    std::milli>(_opt.pollMs));
    }

    FleetOutcome out;
    out.interrupted = interrupted;
    out.fatal = _fatal;
    out.done = _sched.doneCount();
    out.failed = _sched.failedCount();
    out.resumes = _resumes;
    out.hangKills = _hangKills;
    out.leaseExpiries = _sched.leaseExpiries();
    out.zombieRejects = _sched.zombieRejects();
    out.zombieRescues = _sched.zombieRescues();
    out.reportPath = _opt.outDir + "/report.json";
    out.jobs = _sched.jobs();
    // A failed launch hands its claim back (releaseClaim), so every
    // attempt a job counts beyond its first is a retry that ran.
    for (const JobProgress &p : out.jobs)
        out.retries += static_cast<std::size_t>(
            std::max(0, p.attempts - 1));
    for (const HostRuntime &h : _hosts) {
        HostReport hr;
        hr.name = h.spec.name;
        hr.transport = h.spec.transport;
        hr.slots = h.spec.slots;
        hr.state = h.health.stateName();
        hr.quarantines = h.health.quarantines();
        hr.opFailures = h.health.opFailures();
        hr.jobsDone = jobsDoneOn(out.jobs, h.spec.name);
        hr.lastError = h.health.lastError();
        if (h.faulty) {
            hr.faulty = true;
            hr.faultsInjected = h.faulty->counters().injected();
        }
        out.hostsQuarantined += hr.quarantines;
        if (h.health.state() == HostState::Dead)
            ++out.hostsDead;
        out.hosts.push_back(std::move(hr));
    }
    _journal.event(nowMs(), "sweep_end")
        .u64("done", out.done)
        .u64("failed", out.failed)
        .u64("retries", out.retries)
        .u64("resumes", out.resumes)
        .u64("hang_kills", out.hangKills)
        .u64("lease_expiries",
             static_cast<std::uint64_t>(out.leaseExpiries))
        .u64("zombie_rejects",
             static_cast<std::uint64_t>(out.zombieRejects))
        .u64("zombie_rescues",
             static_cast<std::uint64_t>(out.zombieRescues))
        .u64("hosts_quarantined",
             static_cast<std::uint64_t>(out.hostsQuarantined))
        .u64("hosts_dead",
             static_cast<std::uint64_t>(out.hostsDead))
        .b("interrupted", out.interrupted)
        .b("fatal", !out.fatal.empty());
    writeStatus(nowMs(), true);
    writeReport(out);
    note("sweep '" + _spec.name + "' " +
         (!out.fatal.empty()
              ? "aborted"
              : interrupted ? "interrupted" : "complete") +
         ": " + std::to_string(out.done) + " done, " +
         std::to_string(out.failed) + " failed, " +
         std::to_string(out.retries) + " retries (" +
         std::to_string(out.resumes) + " resumed), " +
         std::to_string(out.leaseExpiries) + " lease expiries, " +
         std::to_string(out.zombieRejects) + " zombie rejects, "
         "report " + out.reportPath);
    return out;
}

void
FleetSupervisor::writeStatus(double nowMs, bool final)
{
    const std::vector<JobProgress> &jobs = _sched.jobs();
    const double targetMs = _spec.seconds * 1000.0;

    // Per-job simulated progress: a running job's newest heartbeat
    // tick, a done job's full target, otherwise zero.
    std::vector<double> simMs(jobs.size(), 0.0);
    std::vector<double> rates(jobs.size(), 0.0);
    std::vector<const std::deque<double> *> windows(jobs.size(),
                                                    nullptr);
    for (const Slot &s : _slots) {
        if (!s.active || s.jobIdx == FleetScheduler::npos)
            continue;
        if (s.lastTickMs > 0.0)
            simMs[s.jobIdx] = s.lastTickMs;
        rates[s.jobIdx] = s.simRate;
        if (!s.rateWindow.empty())
            windows[s.jobIdx] = &s.rateWindow;
    }
    std::size_t nPending = 0, nRunning = 0, nBackoff = 0, nDone = 0,
                nFailed = 0;
    double simDone = 0.0, activeRate = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        switch (jobs[i].state) {
          case JobState::Pending: ++nPending; break;
          case JobState::Running: ++nRunning; break;
          case JobState::Backoff: ++nBackoff; break;
          case JobState::Done:
            ++nDone;
            simMs[i] = targetMs;
            break;
          case JobState::Failed: ++nFailed; break;
        }
        simDone += simMs[i];
        activeRate += rates[i];
    }
    // ETA from the fleet's current aggregate rate; failed jobs are
    // out of the race, so their remaining sim time does not count.
    const double remaining =
        targetMs * static_cast<double>(jobs.size() - nFailed) -
        simDone;
    const double etaMs =
        activeRate > 0.0 && remaining > 0.0
            ? remaining / activeRate * 1000.0
            : (remaining <= 0.0 ? 0.0 : -1.0);

    std::ostringstream os;
    os << "{\n"
       << "  \"kind\": \"vip-fleet-status\",\n"
       << "  \"schemaVersion\": 2,\n"
       << "  \"name\": " << json::quoted(_spec.name) << ",\n"
       << "  \"final\": " << (final ? "true" : "false") << ",\n"
       << "  \"wall_ms\": " << fmtNum(nowMs) << ",\n"
       << "  \"jobs\": {\n"
       << "    \"total\": " << jobs.size() << ",\n"
       << "    \"pending\": " << nPending << ",\n"
       << "    \"running\": " << nRunning << ",\n"
       << "    \"backoff\": " << nBackoff << ",\n"
       << "    \"done\": " << nDone << ",\n"
       << "    \"failed\": " << nFailed << "\n  },\n";
    os << "  \"throughput\": {\n"
       << "    \"sim_target_ms_per_job\": " << fmtNum(targetMs)
       << ",\n"
       << "    \"sim_ms_done\": " << fmtNum(simDone) << ",\n"
       << "    \"sim_ms_per_wall_s\": " << fmtNum(activeRate)
       << ",\n"
       << "    \"eta_ms\": " << fmtNum(etaMs) << "\n  },\n";
    os << "  \"job_detail\": [\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobProgress &p = jobs[i];
        os << "    {\"id\": " << json::quoted(p.job.id)
           << ", \"state\": \"" << jobStateName(p.state)
           << "\", \"attempts\": "
           << p.attempts << ", \"sim_ms\": " << fmtNum(simMs[i]);
        if (rates[i] > 0.0)
            os << ", \"sim_ms_per_wall_s\": " << fmtNum(rates[i]);
        if (!p.host.empty())
            os << ", \"host\": " << json::quoted(p.host);
        // Per-shard throughput window (newest last) plus the
        // steady-state verdict: a running shard is judged on the
        // relative spread of its rate window; a committed shard
        // reports the tick its own detector latched (if any).
        if (const std::deque<double> *w = windows[i]) {
            os << ", \"rate_window\": [";
            for (std::size_t k = 0; k < w->size(); ++k)
                os << (k ? ", " : "") << fmtNum((*w)[k]);
            os << "]";
            double lo = (*w)[0], hi = (*w)[0], sum = 0.0;
            for (double v : *w) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
                sum += v;
            }
            const double mean =
                sum / static_cast<double>(w->size());
            os << ", \"rate_steady\": "
               << (w->size() >= 8 && mean > 0.0 &&
                           (hi - lo) <= 0.5 * mean
                       ? "true"
                       : "false");
        }
        const double steadyTick =
            i < _jobSteadyTickMs.size() ? _jobSteadyTickMs[i] : -1.0;
        if (steadyTick >= 0.0)
            os << ", \"steady_tick_ms\": " << fmtNum(steadyTick);
        os << "}" << (i + 1 < jobs.size() ? ",\n" : "\n");
    }
    os << "  ],\n";
    os << "  \"hosts\": [\n";
    for (std::size_t i = 0; i < _hosts.size(); ++i) {
        const HostRuntime &h = _hosts[i];
        os << "    {\"name\": " << json::quoted(h.spec.name)
           << ", \"state\": \"" << h.health.stateName()
           << "\", \"quarantines\": " << h.health.quarantines()
           << ", \"op_failures\": " << h.health.opFailures()
           << ", \"jobs_done\": " << jobsDoneOn(jobs, h.spec.name);
        if (h.faulty)
            os << ", \"faults_injected\": "
               << h.faulty->counters().injected();
        os << "}" << (i + 1 < _hosts.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";

    std::string err;
    if (!writeFileAtomic(_opt.outDir + "/fleet-status.json",
                         os.str(), &err))
        note("cannot write fleet-status.json: " + err);
}

void
FleetSupervisor::writeReport(const FleetOutcome &out) const
{
    // Aggregate every completed shard's committed stats.json.
    std::vector<StatsFile> parsed;
    parsed.reserve(out.jobs.size());
    std::vector<const StatsFile *> shards;
    for (const JobProgress &p : out.jobs) {
        if (p.state != JobState::Done)
            continue;
        const ShardPaths paths = shardPaths(_opt.outDir, p.job.id);
        std::ifstream in(paths.statsJson);
        if (!in) {
            note(p.job.id + ": done but " + paths.statsJson +
                 " is unreadable; excluded from the aggregate");
            continue;
        }
        try {
            parsed.push_back(parseStatsJson(in));
        } catch (const std::exception &e) {
            note(p.job.id + ": stats.json rejected (" + e.what() +
                 "); excluded from the aggregate");
        }
    }
    for (const StatsFile &f : parsed)
        shards.push_back(&f);
    const auto agg = aggregateStats(shards);

    std::ostringstream os;
    const FleetPolicy &pol = _spec.fleet;
    os << "{\n"
       << "  \"kind\": \"vip-fleet-report\",\n"
       << "  \"schemaVersion\": 2,\n"
       << "  \"name\": " << json::quoted(_spec.name) << ",\n"
       << "  \"seconds\": " << fmtNum(_spec.seconds) << ",\n"
       << "  \"interrupted\": "
       << (out.interrupted ? "true" : "false") << ",\n";
    if (!out.fatal.empty())
        os << "  \"fatal\": " << json::quoted(out.fatal) << ",\n";
    os << "  \"policy\": {\n"
       << "    \"workers\": " << pol.workers << ",\n"
       << "    \"max_attempts\": " << pol.maxAttempts << ",\n"
       << "    \"backoff_base_ms\": " << fmtNum(pol.backoffBaseMs)
       << ",\n"
       << "    \"backoff_cap_ms\": " << fmtNum(pol.backoffCapMs)
       << ",\n"
       << "    \"backoff_jitter\": "
       << (pol.backoffJitter ? "true" : "false") << ",\n"
       << "    \"lease_ms\": " << fmtNum(pol.leaseMs) << ",\n"
       << "    \"heartbeat_deadline_ms\": "
       << fmtNum(pol.heartbeatDeadlineMs) << ",\n"
       << "    \"heartbeat_interval_ms\": "
       << fmtNum(pol.heartbeatIntervalMs) << ",\n"
       << "    \"heartbeat_grace_ms\": "
       << fmtNum(pol.heartbeatGraceMs) << ",\n"
       << "    \"quarantine_after\": " << pol.quarantineAfter
       << ",\n"
       << "    \"probe_interval_ms\": "
       << fmtNum(pol.probeIntervalMs) << ",\n"
       << "    \"fetch_retries\": " << pol.fetchRetries << ",\n"
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
       << "    \"lease_expiries\": " << out.leaseExpiries << ",\n"
       << "    \"zombie_rejects\": " << out.zombieRejects << ",\n"
       << "    \"zombie_rescues\": " << out.zombieRescues << ",\n"
       << "    \"hosts_quarantined\": " << out.hostsQuarantined
       << ",\n"
       << "    \"hosts_dead\": " << out.hostsDead << ",\n"
       << "    \"aggregated_shards\": " << shards.size()
       << "\n  },\n";

    os << "  \"hosts\": [\n";
    for (std::size_t i = 0; i < out.hosts.size(); ++i) {
        const HostReport &h = out.hosts[i];
        os << "    {\n"
           << "      \"name\": " << json::quoted(h.name) << ",\n"
           << "      \"transport\": " << json::quoted(h.transport)
           << ",\n"
           << "      \"slots\": " << h.slots << ",\n"
           << "      \"state\": " << json::quoted(h.state) << ",\n"
           << "      \"quarantines\": " << h.quarantines << ",\n"
           << "      \"op_failures\": " << h.opFailures << ",\n"
           << "      \"jobs_done\": " << h.jobsDone;
        if (h.faulty)
            os << ",\n      \"faults_injected\": "
               << h.faultsInjected;
        if (!h.lastError.empty())
            os << ",\n      \"last_error\": "
               << json::quoted(h.lastError);
        os << "\n    }" << (i + 1 < out.hosts.size() ? ",\n" : "\n");
    }
    os << "  ],\n";

    // Explicit enumerations of reassigned and quarantined work, so
    // degradation is auditable without walking every job record.
    os << "  \"reassigned_jobs\": [";
    {
        bool first = true;
        for (const JobProgress &p : out.jobs) {
            if (p.leaseExpiries == 0)
                continue;
            os << (first ? "" : ", ") << json::quoted(p.job.id);
            first = false;
        }
    }
    os << "],\n";
    os << "  \"quarantined_hosts\": [";
    {
        bool first = true;
        for (const HostReport &h : out.hosts) {
            if (h.quarantines == 0)
                continue;
            os << (first ? "" : ", ") << json::quoted(h.name);
            first = false;
        }
    }
    os << "],\n";

    auto jobJson = [&os](const JobProgress &p, bool failedOnly) {
        os << "    {\n"
           << "      \"id\": " << json::quoted(p.job.id) << ",\n"
           << "      \"config\": " << json::quoted(p.job.config)
           << ",\n"
           << "      \"workload\": " << json::quoted(p.job.workload)
           << ",\n"
           << "      \"seed\": " << p.job.seed << ",\n";
        if (!p.job.faultPlan.empty())
            os << "      \"fault_plan\": "
               << json::quoted(p.job.faultPlan) << ",\n";
        os << "      \"state\": \"" << jobStateName(p.state)
           << "\",\n"
           << "      \"attempts\": " << p.attempts << ",\n"
           << "      \"resumed\": "
           << (p.everResumed ? "true" : "false") << ",\n";
        if (!p.host.empty())
            os << "      \"host\": " << json::quoted(p.host) << ",\n";
        if (p.leaseExpiries > 0)
            os << "      \"lease_expiries\": " << p.leaseExpiries
               << ",\n";
        if (p.zombieRejects > 0)
            os << "      \"zombie_rejects\": " << p.zombieRejects
               << ",\n";
        if (p.rescued)
            os << "      \"rescued\": true,\n";
        os << "      \"wall_ms\": " << fmtNum(p.wallMs);
        if (!failedOnly && p.state == JobState::Done)
            os << ",\n      \"stats\": "
               << json::quoted("shards/" + p.job.id + "/stats.json");
        if (!p.lastError.empty())
            os << ",\n      \"last_error\": "
               << json::quoted(p.lastError);
        if (!p.history.empty()) {
            os << ",\n      \"history\": [";
            for (std::size_t i = 0; i < p.history.size(); ++i)
                os << (i ? ", " : "") << json::quoted(p.history[i]);
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
    for (const JobProgress &p : out.jobs) {
        if (p.state != JobState::Failed)
            continue;
        if (!first)
            os << ",\n";
        first = false;
        jobJson(p, true);
    }
    os << (first ? "" : "\n") << "  ],\n";

    os << "  \"aggregate\": ";
    writeAggregateJson(os, agg, "  ");
    os << "\n}\n";

    std::string err;
    if (!writeFileAtomic(out.reportPath, os.str(), &err))
        fatal("cannot write ", out.reportPath, ": ", err);

    std::ostringstream as;
    writeAggregateDocument(as, agg, shards.size(), _spec.name);
    if (!writeFileAtomic(_opt.outDir + "/aggregate.json", as.str(),
                         &err))
        fatal("cannot write ", _opt.outDir, "/aggregate.json: ",
              err);
}

} // namespace fleet
} // namespace vip
