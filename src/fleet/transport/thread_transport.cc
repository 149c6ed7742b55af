#include "fleet/transport/thread_transport.hh"

#include <signal.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/simulation.hh"
#include "fault/fault_plan.hh"
#include "fleet/job_spec.hh"
#include "fleet/transport/local_transport.hh"
#include "obs/provenance.hh"
#include "sim/audit.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace vip
{
namespace fleet
{

namespace
{

/**
 * One in-process attempt's shared state.  The worker thread writes
 * ok/error, then publishes with a release store of finished; the
 * supervisor joins after an acquire load, so the plain fields are
 * safely visible.
 */
struct ThreadHandle : WorkerHandle
{
    std::thread thread;
    std::atomic<int> cancel{0}; ///< the job's interrupt flag
    std::atomic<bool> finished{false};
    bool ok = false;
    std::string error;
    std::string attemptDir;
    bool joined = false;

    ~ThreadHandle() override
    {
        // Last-resort cleanup: request a graceful stop and wait (the
        // simulator always reaches a quiescent point unless the
        // whole process is wedged).
        if (thread.joinable()) {
            cancel.store(SIGTERM, std::memory_order_relaxed);
            thread.join();
        }
    }
};

/** Mirrors vip_sim's flag semantics exactly (same outputs, same
 *  digest-visible side effects). */
void
runThreadAttempt(double seconds, std::string audit, FleetPolicy pol,
                 FleetJob job, std::string attemptDir,
                 std::string restoreFrom, ThreadHandle *task)
{
    try {
        SocConfig cfg;
        cfg.simSeconds = seconds;
        cfg.seed = job.seed;
        cfg.system = configByCliName(job.config);
        if (!job.faultPlan.empty())
            cfg.fault = FaultPlan::parse(job.faultPlan);
        if (!audit.empty())
            cfg.audit = AuditConfig::parse(audit);
        if (pol.digests && !cfg.audit.enabled())
            cfg.audit = AuditConfig::parse("periodic:1");
        const std::string statsPath =
            attemptDir + "/" + attempt_files::kStats;
        const std::string digestPath =
            attemptDir + "/" + attempt_files::kDigest;
        if (pol.heartbeatIntervalMs > 0.0) {
            cfg.ts.metricsOut =
                attemptDir + "/" + attempt_files::kMetrics;
            cfg.ts.intervalMs = pol.heartbeatIntervalMs;
        }
        cfg.statsOut = statsPath;
        cfg.postmortemDir = attemptDir + "/" + attempt_files::kPmDir;
        if (pol.checkpointEveryMs > 0.0)
            cfg.checkpointEveryMs = pol.checkpointEveryMs;
        if (!restoreFrom.empty())
            cfg.restorePath = restoreFrom;
        cfg.interruptFlag = &task->cancel;

        Simulation sim(cfg, workloadByName(job.workload));
        RunStats s = sim.run();

        {
            std::ofstream out(statsPath);
            if (!out)
                fatal("cannot write ", statsPath);
            sim.writeStatsJson(out);
        }
        if (pol.digests) {
            std::ofstream out(digestPath);
            if (!out)
                fatal("cannot write ", digestPath);
            std::vector<std::string> meta{
                "workload=" + job.workload, "config=" + job.config,
                "seed=" + std::to_string(cfg.seed)};
            for (const auto &l : provenanceMetaLines())
                meta.push_back(l);
            sim.auditor().writeDigestStream(out, meta);
        }

        if (sim.interrupted()) {
            task->error = "interrupted (graceful cancel, signal " +
                          std::to_string(sim.interruptSignal()) + ")";
        } else if (s.auditViolations > 0) {
            task->error = "audit violations: " +
                          std::to_string(s.auditViolations);
        } else {
            task->ok = true;
        }
    } catch (const std::exception &e) {
        task->error = std::string("exception: ") + e.what();
    } catch (...) {
        task->error = "unknown exception";
    }
    task->finished.store(true, std::memory_order_release);
}

} // namespace

std::unique_ptr<WorkerHandle>
ThreadTransport::launch(const LaunchRequest &req, std::string *err)
{
    if (!req.spec || !req.job) {
        if (err)
            *err = "thread transport needs spec/job in the request";
        return nullptr;
    }
    std::error_code ec;
    fs::create_directories(req.attemptDir + "/" +
                               attempt_files::kPmDir,
                           ec);
    if (ec) {
        if (err)
            *err = "cannot create " + req.attemptDir + ": " +
                   ec.message();
        return nullptr;
    }
    auto h = std::make_unique<ThreadHandle>();
    h->attemptDir = req.attemptDir;
    h->thread = std::thread(runThreadAttempt, req.spec->seconds,
                            req.spec->audit, req.spec->fleet,
                            *req.job, req.attemptDir,
                            req.restoreFrom, h.get());
    return h;
}

PollResult
ThreadTransport::poll(WorkerHandle &wh)
{
    auto &h = static_cast<ThreadHandle &>(wh);
    PollResult pr;
    if (!h.finished.load(std::memory_order_acquire)) {
        pr.state = WorkerState::Running;
        return pr;
    }
    if (!h.joined) {
        h.thread.join();
        h.joined = true;
    }
    pr.state = WorkerState::Exited;
    pr.ok = h.ok;
    pr.exitCode = h.ok ? 0 : 1;
    pr.error = h.ok ? "" : (h.error.empty() ? "failed" : h.error);
    return pr;
}

bool
ThreadTransport::heartbeat(WorkerHandle &wh, HeartbeatInfo *info,
                           std::string *err)
{
    (void)err;
    auto &h = static_cast<ThreadHandle &>(wh);
    const std::string csv =
        h.attemptDir + "/" + attempt_files::kMetrics;
    info->size = statFileSize(csv);
    info->tickMs = info->size > 0 ? readLastTickMs(csv) : -1.0;
    info->wallMs = steadyWallMs();
    return true;
}

void
ThreadTransport::interrupt(WorkerHandle &wh)
{
    static_cast<ThreadHandle &>(wh).cancel.store(
        SIGTERM, std::memory_order_relaxed);
}

void
ThreadTransport::forceKill(WorkerHandle &wh)
{
    // No safe way to kill a thread: graceful cancel is the best a
    // thread backend can do.
    interrupt(wh);
}

bool
ThreadTransport::fetch(WorkerHandle &wh, ArtifactManifest *out,
                       std::string *err)
{
    auto &h = static_cast<ThreadHandle &>(wh);
    return localManifest(h.attemptDir, out, err);
}

bool
ThreadTransport::probe(std::string *err)
{
    (void)err;
    return true;
}

} // namespace fleet
} // namespace vip
