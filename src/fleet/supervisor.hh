/**
 * @file
 * FleetSupervisor: the crash-resumable local process pool behind
 * `vip_fleet`.
 *
 * The supervisor expands a JobSpec into jobs, runs each attempt as one
 * forked `vip_sim` child in one of policy.workers slots, watches every
 * attempt's liveness, and drives the FleetScheduler's retry state
 * machine:
 *
 *  - every attempt is one `vip_sim workerArgs()` run in its own
 *    attempt directory (<outDir>/shards/<job>/a<attempt>/, worker.hh)
 *    and streams a metrics CSV (its *heartbeat*): the newest row's
 *    tick_ms is the shard's simulated progress, and a stream that
 *    stops growing for heartbeatDeadlineMs of wall time — after a
 *    heartbeatGraceMs startup grace — means the worker is hung and
 *    gets killed;
 *  - a worker that exits nonzero, dies on a signal, or cannot be
 *    launched at all is a job failure; the shard retries after
 *    decorrelated-jitter backoff, resuming from its newest committed
 *    ring checkpoint when one exists.  Jobs that exhaust their
 *    attempts land in the report's failed_jobs section — the sweep
 *    completes regardless;
 *  - a finished attempt's artifacts are committed to the canonical
 *    shard paths with tmp+rename copies, so a killed vip_fleet never
 *    leaves a torn shard behind;
 *  - every transition is one record of <outDir>/journal.jsonl
 *    (journal.hh), the sweep's only account: the report is the
 *    journal's fold, and the scheduler holds just what its decisions
 *    read.
 *
 * Chaos injection (--kill <job>@<sim-ms>) force-kills a named job's
 * first attempt once its heartbeat crosses a simulated-time
 * threshold — deterministic enough for CI to assert that the
 * recovered shard's stats are bit-identical to an uninterrupted run.
 */

#ifndef VIP_FLEET_SUPERVISOR_HH
#define VIP_FLEET_SUPERVISOR_HH

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "fleet/job_spec.hh"
#include "fleet/journal.hh"
#include "fleet/scheduler.hh"
#include "fleet/worker.hh"

namespace vip
{
namespace fleet
{

/** Where one job's *canonical* (committed) artifacts live:
 *  <outDir>/shards/<jobId>/...  Attempts stage under <dir>/a<N>/ and
 *  only a finished attempt's results land here. */
struct ShardPaths
{
    std::string dir;        ///< the shard directory
    std::string statsJson;  ///< committed stats dump
    std::string metricsCsv; ///< committed heartbeat stream
    std::string pmDir;      ///< checkpoint home
    std::string checkpoint; ///< <pmDir>/checkpoint.vips
    std::string digest;     ///< committed digest stream
    std::string log;        ///< worker stdout+stderr, all attempts
};

ShardPaths shardPaths(const std::string &outDir,
                      const std::string &jobId);

/** Attempt directory of attempt @p attempt (from 1) of one job. */
std::string attemptDir(const std::string &outDir,
                       const std::string &jobId, int attempt);

/** Everything run() needs beyond the spec itself. */
struct FleetOptions
{
    std::string outDir;     ///< report + shard tree root
    std::string vipSimPath; ///< worker binary

    /** @{ chaos injection: force-kill job killJobId's first attempt
     *  once its heartbeat reaches killAtSimMs simulated ms.  The
     *  threshold is simulated time, so a ring checkpoint (cadence
     *  checkpointEveryMs < killAtSimMs) provably exists before the
     *  kill — no wall-clock races. */
    std::string killJobId;
    double killAtSimMs = 0.0;
    /** @} */

    /** Graceful fleet stop (vip_fleet's own SIGINT/SIGTERM flag):
     *  workers are interrupted, the loop drains, the report still
     *  gets written. */
    const std::atomic<int> *stopFlag = nullptr;

    /** Echo every journal record but heartbeats to stderr. */
    bool verbose = true;
};

/**
 * The vip_sim argv (argv[0] excluded) for one attempt of @p job.
 * All artifact paths are *attempt-relative* (stats.json, metrics.csv,
 * digest.dig, pm/): the worker runs inside its attempt directory.
 * Identical flags on every attempt and on reference reruns, because a
 * restore checks the audit spec (checkpoint identity) and the
 * sampling interval and stat selection (the snapshot's sampler
 * section).  The supervisor appends --restore to a resuming attempt.
 * Exposed for tests.
 */
std::vector<std::string> workerArgs(const JobSpec &spec,
                                    const FleetJob &job);

/**
 * Render a folded journal as <outDir>/report.json (schema v4: the
 * sweep's summary and jobs, plus @p policy) and write
 * <outDir>/aggregate.json, the percentile merge of every done
 * shard's committed stats.json.  SimFatal when either cannot be
 * written.
 */
void writeFleetReport(const std::string &outDir,
                      const FoldedSweep &sweep,
                      const FleetPolicy &policy);

class FleetSupervisor
{
  public:
    FleetSupervisor(JobSpec spec, FleetOptions opt);
    ~FleetSupervisor(); ///< out-of-line: Slot is complete in the .cc

    /** Run the sweep to completion (or until stopFlag), then fold the
     *  journal into the merged report and return the fold.  SimFatal
     *  only on setup errors (bad outDir, missing worker binary) and
     *  on a commit that cannot be written — job failures never throw;
     *  SimPanic if the fold disagrees with the scheduler on any job's
     *  state or attempts. */
    FoldedSweep run();

  private:
    /** One worker seat: at most one running attempt. */
    struct Slot;

    void launch(Slot &slot, std::size_t jobIdx, double nowMs);
    void pollSlot(Slot &slot, double nowMs);
    /** Watch a running attempt's heartbeat: journal its progress,
     *  fire the chaos kill, kill it when hung. */
    void watch(Slot &slot, double nowMs);
    void settleAttempt(Slot &slot, double nowMs, const WorkerExit &ex);
    /** Fail @p jobIdx's running attempt and journal the job's new
     *  state (with @p commitError when its checkpoint did not
     *  commit); @p canResume: a committed checkpoint awaits the
     *  retry. */
    void failAttempt(std::size_t jobIdx, double nowMs, double elapsedMs,
                     const std::string &why, bool canResume,
                     const std::string &commitError);
    /** Copy attempt @p attempt's artifacts to the canonical shard
     *  paths: the checkpoint always, the results on @p success. */
    bool commitArtifacts(const std::string &jobId, int attempt,
                         bool success, std::string *err);

    JobSpec _spec;
    FleetOptions _opt;
    FleetScheduler _sched;
    std::vector<Slot> _slots;
    bool _chaosFired = false;
    FleetJournal _journal;
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_SUPERVISOR_HH
