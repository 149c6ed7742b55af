#include "fleet/supervisor.hh"

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

/** Supervisor poll cadence, wall ms. */
constexpr double kPollMs = 10.0;

/** How long after the sweep settles to keep waiting for zombie
 *  attempts to finish (their results are fence-checked, then rescued
 *  or rejected) before force-killing them, wall ms. */
constexpr double kZombieGraceMs = 250.0;

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

void
FleetSupervisor::hostOpFailure(std::size_t hostIdx, double nowMs,
                               const char *op, const std::string &jobId,
                               const std::string &err, const char *state)
{
    HostRuntime &h = _hosts[hostIdx];
    if (h.health.state() != HostState::Healthy) {
        // Benched: a dead host has nothing left to score, and a
        // quarantined one's fate is its probes'.  Its live slots are
        // still polled, so journaling each failure would flood the
        // record; keep only the error a lease expiry cites.  (No
        // such failure moves a job: launches go to healthy hosts.)
        h.health.onOpFailure(nowMs, std::string(op) + " " + jobId +
                                        ": " + err);
        return;
    }
    {
        auto r = _journal.event(nowMs, "op_fail");
        r.str("host", h.spec.name).str("op", op).str("job", jobId)
            .str("error", err);
        if (*state)
            r.str("state", state);
    }
    if (h.health.onOpFailure(nowMs, std::string(op) + " " + jobId +
                                        ": " + err))
        _journal.event(nowMs, h.health.state() == HostState::Dead
                                  ? "host_dead"
                                  : "quarantine")
            .str("host", h.spec.name)
            .u64("quarantines",
                 static_cast<std::uint64_t>(h.health.quarantines()));
}

void
FleetSupervisor::probeQuarantined(double nowMs)
{
    for (HostRuntime &h : _hosts) {
        if (!h.health.probeDue(nowMs))
            continue;
        std::string err;
        const bool ok = h.transport->probe(&err);
        if (ok)
            h.health.onProbeSuccess();
        const bool dead = !ok && h.health.onProbeFailure(nowMs, err);
        {
            auto r = _journal.event(nowMs, "probe");
            r.str("host", h.spec.name).b("ok", ok);
            if (!ok)
                r.str("error", err);
        }
        if (dead)
            _journal.event(nowMs, "host_dead")
                .str("host", h.spec.name)
                .u64("quarantines", static_cast<std::uint64_t>(
                                        h.health.quarantines()));
    }
}

void
FleetSupervisor::launch(Slot &slot, std::size_t jobIdx, double nowMs)
{
    const JobProgress &p = _sched.job(jobIdx);
    HostRuntime &h = _hosts[slot.hostIdx];
    const bool resume = p.resumeNext;

    LaunchRequest req;
    req.jobId = p.job.id;
    req.token = p.token;
    req.attemptDir = attemptDir(_opt.outDir, p.job.id, p.token);
    req.args = workerArgs(_spec, p.job);
    req.restoreFrom =
        resume ? shardPaths(_opt.outDir, p.job.id).checkpoint : "";

    std::string err;
    auto handle = h.transport->launch(req, &err);
    if (!handle) {
        // The worker never started: hand the claim back untouched
        // (no attempt burned, no zombie possible) and score the
        // host.
        _sched.releaseClaim(jobIdx);
        hostOpFailure(slot.hostIdx, nowMs, "launch", p.job.id, err,
                      jobStateName(p.state));
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

    _journal.event(nowMs, "launch")
        .str("job", p.job.id)
        .u64("token", p.token)
        .u64("attempt", static_cast<std::uint64_t>(p.attempts))
        .str("host", h.spec.name)
        .b("resume", resume)
        .str("state", jobStateName(p.state));
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
FleetSupervisor::commitSuccess(const Slot &slot, double nowMs,
                               const ArtifactManifest &m, bool rescue)
{
    const JobProgress &p = _sched.job(slot.jobIdx);
    std::string err;
    // A rescue only ever accepts the current token, so the rescued
    // attempt is the job's latest, p.attempts, in both cases.
    if (!commitArtifacts(p.job.id, m, true, p.attempts, &err))
        fatal("fleet: cannot commit ", rescue ? "rescued" : "accepted",
              " artifacts of ", p.job.id, ": ", err);
    auto r = _journal.event(nowMs, rescue ? "zombie_rescue" : "commit");
    r.str("job", p.job.id)
        .u64("token", slot.token)
        .u64("attempt", static_cast<std::uint64_t>(p.attempts))
        .str("host", _hosts[slot.hostIdx].spec.name)
        .num("elapsed_ms", nowMs - slot.startMs);
    std::ifstream sf(shardPaths(_opt.outDir, p.job.id).statsJson);
    try {
        const StatsFile f = parseStatsJson(sf);
        if (const StatEntry *e = f.find("sim.steady.tick"))
            r.num("steady_tick_ms", e->value);
    } catch (const SimFatal &) {
        // Informational only: the report excludes a malformed stats
        // file from the aggregate.
    }
    r.str("state", jobStateName(p.state));
}

void
FleetSupervisor::failAttempt(Slot &slot, double nowMs,
                             const std::string &why, bool canResume,
                             const ArtifactManifest *m)
{
    const JobProgress &p = _sched.job(slot.jobIdx);
    if (!_sched.acceptFailure(slot.jobIdx, slot.token, nowMs, canResume))
        return;
    std::string err;
    const bool committed =
        !m || commitArtifacts(p.job.id, *m, false, p.attempts, &err);
    auto r = _journal.event(nowMs, "job_fail");
    r.str("job", p.job.id)
        .u64("token", slot.token)
        .u64("attempt", static_cast<std::uint64_t>(p.attempts))
        .str("host", _hosts[slot.hostIdx].spec.name)
        .str("why", why)
        .num("elapsed_ms", nowMs - slot.startMs);
    if (!committed)
        r.str("commit_error", err);
    r.b("will_resume", p.resumeNext).str("state", jobStateName(p.state));
}

void
FleetSupervisor::settleAttempt(Slot &slot, double nowMs,
                               const ArtifactManifest &m)
{
    if (slot.exitResult.ok && produced(m)) {
        if (_sched.acceptSuccess(slot.jobIdx, slot.token))
            commitSuccess(slot, nowMs, m, false);
        else
            _journal.event(nowMs, "stale_reject")
                .str("job", _sched.job(slot.jobIdx).job.id)
                .u64("token", slot.token);
        return;
    }
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
        why = slot.exitResult.error.empty() ? "failed"
                                            : slot.exitResult.error;
    failAttempt(slot, nowMs, why,
                hasArtifact(m, attempt_files::kCheckpoint), &m);
}

void
FleetSupervisor::tryFetch(Slot &slot, double nowMs)
{
    ArtifactManifest m;
    std::string err;
    if (fetchVerified(slot, &m, &err)) {
        _hosts[slot.hostIdx].health.onOpSuccess();
        _sched.renewLease(slot.jobIdx, nowMs);
        settleAttempt(slot, nowMs, m);
        slot.vacate();
        return;
    }
    hostOpFailure(slot.hostIdx, nowMs, "fetch",
                  _sched.job(slot.jobIdx).job.id, err);
    if (++slot.fetchAttempts < _spec.fleet.fetchRetries)
        return;
    failAttempt(slot, nowMs,
                "artifact fetch failed after " +
                    std::to_string(slot.fetchAttempts) +
                    " attempts: " + err,
                false, nullptr);
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
            hostOpFailure(slot.hostIdx, nowMs, "poll", p.job.id,
                          pr.error);
            return; // no lease renewal: expiry reassigns the job
        }
        h.health.onOpSuccess();
        if (pr.state == WorkerState::Running) {
            _sched.renewLease(slot.jobIdx, nowMs);

            HeartbeatInfo hb;
            std::string err;
            if (!h.transport->heartbeat(*slot.handle, &hb, &err)) {
                hostOpFailure(slot.hostIdx, nowMs, "heartbeat",
                              p.job.id, err);
            } else {
                h.health.onOpSuccess();
                if (hb.size >= 0 && hb.size != slot.lastSize) {
                    slot.lastSize = hb.size;
                    slot.lastBeatMs = nowMs;
                    _sched.renewLease(slot.jobIdx, nowMs);
                    _journal.event(nowMs, "heartbeat")
                        .str("job", p.job.id)
                        .u64("token", slot.token)
                        .str("host", h.spec.name)
                        .num("tick_ms", hb.tickMs)
                        .u64("size",
                             static_cast<std::uint64_t>(hb.size));

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
                    }
                }
            }

            if (pol.heartbeatDeadlineMs > 0.0 &&
                pol.heartbeatIntervalMs > 0.0 && !slot.hangKilled &&
                !slot.chaosKilled &&
                nowMs - slot.startMs > pol.heartbeatGraceMs &&
                nowMs - slot.lastBeatMs > pol.heartbeatDeadlineMs) {
                slot.hangKilled = true;
                h.transport->forceKill(*slot.handle);
                _journal.event(nowMs, "hang_kill")
                    .str("job", p.job.id)
                    .u64("token", slot.token)
                    .str("host", h.spec.name)
                    .num("silent_ms", nowMs - slot.lastBeatMs);
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
    const std::string why =
        "lease expired after " + fmtNum(_spec.fleet.leaseMs) +
        " ms on host " + h.spec.name +
        (h.health.lastError().empty()
             ? ""
             : " (" + h.health.lastError() + ")");
    // Resume eligibility comes from the canonical checkpoint (a
    // previously committed attempt): the zombie's own ring is out of
    // reach until — unless — it is fetched and rescued later.
    const bool canResume =
        fileExists(shardPaths(_opt.outDir, p.job.id).checkpoint);
    _sched.onLeaseExpired(idx, nowMs, canResume);
    _journal.event(nowMs, "lease_expiry")
        .str("job", p.job.id)
        .u64("token", slot.token)
        .u64("attempt", static_cast<std::uint64_t>(p.attempts))
        .str("host", h.spec.name)
        .str("why", why)
        .num("elapsed_ms", nowMs - slot.startMs)
        .b("can_resume", canResume)
        .str("state", jobStateName(p.state));

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

        const JobProgress &p = _sched.job(z.jobIdx);
        ArtifactManifest m;
        std::string err;
        if (!fetchVerified(z, &m, &err)) {
            if (++z.fetchAttempts < _spec.fleet.fetchRetries) {
                ++zi;
                continue;
            }
            _journal.event(nowMs, "zombie_unfetchable")
                .str("job", p.job.id)
                .u64("token", z.token)
                .str("error", err);
        } else if (z.exitResult.ok && produced(m)) {
            if (_sched.acceptSuccess(z.jobIdx, z.token))
                commitSuccess(z, nowMs, m, true);
            else
                _journal.event(nowMs, "zombie_reject")
                    .str("job", p.job.id)
                    .u64("token", z.token);
        } else {
            // A zombie's failure changes nothing: its attempt was
            // written off at lease expiry.  Under a stale token it
            // still counts as a refused result.
            _journal.event(nowMs, "zombie_fail")
                .str("job", p.job.id)
                .u64("token", z.token)
                .b("stale", z.token != p.token);
        }
        _zombies.erase(_zombies.begin() + static_cast<long>(zi));
    }
}

void
FleetSupervisor::killZombies(double nowMs)
{
    for (Slot &z : _zombies) {
        _journal.event(nowMs, "zombie_kill")
            .str("job", _sched.job(z.jobIdx).job.id)
            .u64("token", z.token);
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

FoldedSweep
FleetSupervisor::run()
{
    if (_opt.outDir.empty())
        fatal("fleet: no output directory");
    std::error_code ec;
    fs::create_directories(_opt.outDir + "/shards", ec);
    if (ec)
        fatal("cannot create ", _opt.outDir, ": ", ec.message());

    buildHosts();
    const std::string journalPath = _opt.outDir + "/journal.jsonl";
    _journal.open(journalPath, _opt.verbose);

    std::size_t totalSlots = 0;
    for (const HostRuntime &h : _hosts)
        totalSlots += static_cast<std::size_t>(h.spec.slots);
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
        .u64("hosts", _hosts.size())
        .u64("slots", totalSlots);
    for (const HostRuntime &h : _hosts)
        _journal.event(nowMs(), "host")
            .str("host", h.spec.name)
            .str("transport", h.spec.transport)
            .u64("slots", static_cast<std::uint64_t>(h.spec.slots))
            .b("faulty", h.faulty != nullptr);
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
    double drainStartMs = -1.0;
    while (true) {
        const double now = nowMs();
        if (!interrupted && _opt.stopFlag &&
            _opt.stopFlag->load(std::memory_order_relaxed) != 0) {
            interrupted = true;
            _journal.event(now, "interrupt");
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
                const std::vector<std::size_t> abandoned =
                    _sched.failAllUnsettled();
                for (std::size_t i : abandoned)
                    _journal.event(now, "abandon")
                        .str("job", _sched.job(i).job.id)
                        .str("why", "all hosts dead; job abandoned")
                        .str("state", jobStateName(_sched.job(i).state));
                _fatal = "all " + std::to_string(_hosts.size()) +
                         " host(s) dead; " +
                         std::to_string(abandoned.size()) +
                         " unsettled job(s) abandoned";
                _journal.event(now, "fatal").str("error", _fatal);
                killZombies(now);
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
                if (slot.active || !_hosts[slot.hostIdx].health.usable())
                    continue;
                const std::size_t idx = _sched.claimNext(now);
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
            } else if (now - drainStartMs > kZombieGraceMs) {
                killZombies(now);
                break;
            }
        } else {
            drainStartMs = -1.0;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kPollMs));
    }

    for (const HostRuntime &h : _hosts)
        if (h.faulty)
            _journal.event(nowMs(), "faults")
                .str("host", h.spec.name)
                .u64("injected", static_cast<std::uint64_t>(
                                     h.faulty->counters().injected()));
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
       << "  \"schemaVersion\": 3,\n"
       << "  \"name\": " << json::quoted(out.name) << ",\n"
       << "  \"seconds\": " << fmtNum(out.seconds) << ",\n"
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
        const FoldedHost &h = out.hosts[i];
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
        for (const FoldedJob &j : out.jobs) {
            if (j.leaseExpiries == 0)
                continue;
            os << (first ? "" : ", ") << json::quoted(j.job.id);
            first = false;
        }
    }
    os << "],\n";
    os << "  \"quarantined_hosts\": [";
    {
        bool first = true;
        for (const FoldedHost &h : out.hosts) {
            if (h.quarantines == 0)
                continue;
            os << (first ? "" : ", ") << json::quoted(h.name);
            first = false;
        }
    }
    os << "],\n";

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
        if (!j.host.empty())
            os << "      \"host\": " << json::quoted(j.host) << ",\n";
        if (j.leaseExpiries > 0)
            os << "      \"lease_expiries\": " << j.leaseExpiries
               << ",\n";
        if (j.zombieRejects > 0)
            os << "      \"zombie_rejects\": " << j.zombieRejects
               << ",\n";
        if (j.rescued)
            os << "      \"rescued\": true,\n";
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
