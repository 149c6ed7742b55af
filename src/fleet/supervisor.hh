/**
 * @file
 * FleetSupervisor: the crash-surviving, partition-tolerant sweep
 * orchestrator behind `vip_fleet`.
 *
 * The supervisor expands a JobSpec across a roster of hosts (local
 * by default; a --hosts file adds remote ssh workers), watches every
 * attempt's liveness, and drives the FleetScheduler's lease-fenced
 * retry state machine.  It never touches a process or socket
 * directly — all of that lives behind WorkerTransport
 * (src/fleet/transport/), which is also where deterministic fault
 * injection plugs in for chaos testing.
 *
 *  - every attempt is one `vip_sim workerArgs()` run in its own
 *    attempt directory (<outDir>/shards/<job>/a<token>/), started by
 *    fork/exec or over ssh, and streams a metrics CSV
 *    (its *heartbeat*): the newest row's tick_ms is the shard's
 *    simulated progress, and a stream that stops growing for
 *    heartbeatDeadlineMs of wall time — after a heartbeatGraceMs
 *    startup grace — means the worker is hung and gets killed;
 *  - ownership is leased: a claimed job carries a monotonic fencing
 *    token, renewed by evidence of life.  An expired lease (host
 *    partitioned or wedged) sends the job to another worker under a
 *    newer token; the orphaned attempt becomes a *zombie* whose late
 *    artifacts are fence-checked — rejected when a newer attempt
 *    owns the job, rescued when none was ever issued.  Either way
 *    nothing merges twice;
 *  - artifacts travel by checksum: a finished attempt's outputs are
 *    fetched with an FNV-1a manifest, verified locally, and only
 *    then committed to the canonical shard paths with atomic
 *    tmp+rename copies.  A corrupted or torn fetch retries; it can
 *    never half-publish;
 *  - transport failures (not worker failures) score against the
 *    host: enough consecutive failures quarantine it, re-admission
 *    probes (widening intervals) bring it back, and a host that
 *    keeps flapping is declared dead, its work reassigned to the
 *    survivors.  Every host dead is the one terminal error;
 *  - a worker that exits nonzero or dies on a signal is a job
 *    failure; the shard retries after decorrelated-jitter backoff,
 *    resuming from the newest fetched ring checkpoint when one
 *    exists.  Jobs that exhaust their attempts land in the report's
 *    failed_jobs section — the sweep completes regardless;
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
#include <memory>
#include <string>
#include <vector>

#include "fleet/health.hh"
#include "fleet/hosts.hh"
#include "fleet/job_spec.hh"
#include "fleet/journal.hh"
#include "fleet/scheduler.hh"
#include "fleet/transport/transport.hh"

namespace vip
{
namespace fleet
{

/** Where one job's *canonical* (accepted, committed) artifacts
 *  live: <outDir>/shards/<jobId>/...  Attempts stage under
 *  <dir>/a<token>/ and only fence-checked results land here. */
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

/** Attempt staging directory for one (job, token) pair. */
std::string attemptDir(const std::string &outDir,
                       const std::string &jobId, std::uint64_t token);

/** Everything run() needs beyond the spec itself. */
struct FleetOptions
{
    std::string outDir;     ///< report + shard tree root
    std::string vipSimPath; ///< worker binary (process/ssh hosts)

    /** Host roster (--hosts).  Empty = one implicit "process" host
     *  named "local" running policy.workers slots. */
    std::vector<HostSpec> hosts;

    /** Fault-injection spec (--fault) applied to every host without
     *  its own "fault" entry.  "" = none. */
    std::string faultSpec;

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
 * digest.dig, pm/) — the transport decides the working directory, so
 * the same argv runs locally or on any remote host.  Identical flags
 * on every attempt and on reference reruns, because a restore checks
 * the audit spec (checkpoint identity) and the sampling interval and
 * stat selection (the snapshot's sampler section).  Restore is
 * appended by the transport (it stages the checkpoint).  Exposed for
 * tests.
 */
std::vector<std::string> workerArgs(const JobSpec &spec,
                                    const FleetJob &job);

/**
 * Render a folded journal as <outDir>/report.json (schema v3: the
 * sweep's summary, hosts and jobs, plus @p policy) and write
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

    /** Run the sweep to completion (or until stopFlag, or until the
     *  last host dies), then fold the journal into the merged report
     *  and return the fold.  SimFatal only on setup errors (bad
     *  outDir, missing worker binary, bad hosts file) — job failures
     *  and lost hosts never throw; SimPanic if the fold disagrees
     *  with the scheduler on any job's state or attempts. */
    FoldedSweep run();

  private:
    struct HostRuntime;
    /** One worker seat.  An attempt whose lease expired moves out of
     *  its seat into _zombies, still a Slot: its late result is
     *  fence-checked, then rescued or rejected. */
    struct Slot;

    void buildHosts();
    /** Journal and score a failed transport op on @p jobId's behalf;
     *  @p state names the job's new state when the failure moved it
     *  (a released launch claim), "" otherwise. */
    void hostOpFailure(std::size_t hostIdx, double nowMs,
                       const char *op, const std::string &jobId,
                       const std::string &err,
                       const char *state = "");
    void probeQuarantined(double nowMs);
    void launch(Slot &slot, std::size_t jobIdx, double nowMs);
    void pollSlot(Slot &slot, double nowMs);
    void expireLease(Slot &slot, double nowMs);
    /** Fetch @p slot's artifacts and check each against its source
     *  checksum (live attempts and zombies alike). */
    bool fetchVerified(Slot &slot, ArtifactManifest *m,
                       std::string *err);
    /** The attempt left what a success needs: stats, plus the
     *  digest stream when the policy records one. */
    bool produced(const ArtifactManifest &m) const;
    void tryFetch(Slot &slot, double nowMs);
    void settleAttempt(Slot &slot, double nowMs,
                       const ArtifactManifest &m);
    /** Offer a live attempt's failure; when acted on, commit its
     *  checkpoint (if @p m) and journal the job's new state. */
    void failAttempt(Slot &slot, double nowMs, const std::string &why,
                     bool canResume, const ArtifactManifest *m);
    /** Commit an accepted attempt (@p rescue: a zombie's) and journal
     *  it with the shard's own sim.steady.tick, when it has one. */
    void commitSuccess(const Slot &slot, double nowMs,
                       const ArtifactManifest &m, bool rescue);
    bool commitArtifacts(const std::string &jobId,
                         const ArtifactManifest &m, bool success,
                         int attempt, std::string *err);
    void pollZombies(double nowMs);
    void killZombies(double nowMs);
    void interruptAll();

    JobSpec _spec;
    FleetOptions _opt;
    FleetScheduler _sched;
    std::vector<HostRuntime> _hosts;
    std::vector<Slot> _slots;
    std::vector<Slot> _zombies;
    bool _chaosFired = false;
    std::string _fatal;
    FleetJournal _journal;
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_SUPERVISOR_HH
