/**
 * @file
 * WorkerTransport: the narrow seam between the fleet supervisor and
 * wherever a worker actually runs.
 *
 * The supervisor never fork/execs, ssh-es, or stats a file directly;
 * it speaks this interface and nothing else.  Every attempt is one
 * `vip_sim` run; the implementations differ only in where it runs:
 *
 *  - LocalTransport   fork/exec of vip_sim on this machine;
 *  - RemoteTransport  vip_sim on a remote host over ssh exec, with
 *                     stage-out/fetch-back and FNV-1a verification;
 *  - FaultyTransport  a deterministic fault-injection decorator
 *                     (drop/delay/duplicate/corrupt/partition/die)
 *                     wrapping either of the above, so the partition-
 *                     tolerance machinery is testable hermetically.
 *
 * Every attempt runs inside its own *attempt directory* and writes
 * artifacts under fixed relative names (below).  That buys two
 * things: worker argv is host-independent (the transport decides the
 * working directory), and concurrent attempts of the same job — a
 * live retry plus a not-yet-dead zombie from a partitioned host —
 * can never clobber each other.  Only the supervisor, after checking
 * the attempt's fencing token, copies artifacts from an attempt
 * directory to the canonical shard paths.
 *
 * Ops that cross a network (or pretend to) report transport-level
 * failure distinctly from worker failure: a worker exiting 1 is a
 * *job* problem; launch/poll/heartbeat/fetch/probe erroring is a
 * *host* problem and feeds the health scorer.
 */

#ifndef VIP_FLEET_TRANSPORT_TRANSPORT_HH
#define VIP_FLEET_TRANSPORT_TRANSPORT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/transport/artifact.hh"

namespace vip
{
namespace fleet
{

/** Fixed attempt-relative artifact names every transport agrees on. */
namespace attempt_files
{
constexpr const char *kStats = "stats.json";
constexpr const char *kMetrics = "metrics.csv";
constexpr const char *kDigest = "digest.dig";
constexpr const char *kLog = "log.txt";
constexpr const char *kPmDir = "pm";
constexpr const char *kCheckpoint = "pm/checkpoint.vips";
constexpr const char *kRestore = "restore.vips";
} // namespace attempt_files

/** Everything a transport needs to start one attempt of one job. */
struct LaunchRequest
{
    std::string jobId;
    std::uint64_t token = 0; ///< fencing token of this attempt
    /** Local staging directory for this attempt.  Local workers run
     *  here; remote workers mirror into it at fetch time. */
    std::string attemptDir;
    /** vip_sim argv tail with attempt-relative artifact paths. */
    std::vector<std::string> args;
    /** Local checkpoint to restore from (staged to the worker as
     *  attempt_files::kRestore); "" = fresh run. */
    std::string restoreFrom;
};

enum class WorkerState
{
    Running,     ///< attempt alive as far as the transport can tell
    Exited,      ///< attempt finished (see ok/exitCode/termSignal)
    Unreachable, ///< transport-level failure: cannot observe worker
};

struct PollResult
{
    WorkerState state = WorkerState::Unreachable;
    bool ok = false;    ///< Exited: clean success
    int exitCode = -1;  ///< Exited && !signal
    int termSignal = 0; ///< Exited on a signal
    std::string error;  ///< failure / unreachability detail
};

/** One heartbeat observation (all fields best-effort). */
struct HeartbeatInfo
{
    long size = -1;       ///< metrics CSV bytes; -1 = no file yet
    double tickMs = -1.0; ///< newest simulated tick; -1 = unknown
    /** Steady-clock wall ms (steadyWallMs()) when the observation
     *  was actually taken — a cached remote observation keeps its
     *  original stamp, so rate math (Δtick/Δwall) stays honest. */
    double wallMs = -1.0;
};

/** Monotonic wall-clock milliseconds (process-wide steady epoch);
 *  the time base every HeartbeatInfo::wallMs stamp uses. */
double steadyWallMs();

/** Opaque per-attempt state owned by the caller, implemented per
 *  transport.  Destruction must reap/cancel any live worker (last-
 *  resort cleanup, not subject to fault injection). */
class WorkerHandle
{
  public:
    virtual ~WorkerHandle() = default;
};

class WorkerTransport
{
  public:
    virtual ~WorkerTransport() = default;

    virtual const char *kind() const = 0;

    /** Start one attempt.  nullptr + *err on transport failure (the
     *  worker never started; the claim can be released without
     *  burning an attempt — no zombie is possible). */
    virtual std::unique_ptr<WorkerHandle>
    launch(const LaunchRequest &req, std::string *err) = 0;

    /** Observe the attempt.  Never blocks. */
    virtual PollResult poll(WorkerHandle &h) = 0;

    /** Observe the heartbeat stream.  False + *err on transport
     *  failure; a missing metrics file is NOT a failure (info.size
     *  stays -1).  Remote transports may serve throttled/cached
     *  observations. */
    virtual bool heartbeat(WorkerHandle &h, HeartbeatInfo *info,
                           std::string *err) = 0;

    /** Request a graceful stop (SIGTERM / interrupt flag). */
    virtual void interrupt(WorkerHandle &h) = 0;

    /** Hard-kill the attempt (SIGKILL where possible). */
    virtual void forceKill(WorkerHandle &h) = 0;

    /**
     * Pull the attempt's artifacts into its local attemptDir and
     * checksum them at the source (FNV-1a).  Artifacts the attempt
     * did not produce are reported with present = false.  False +
     * *err on transport failure; the caller retries with backoff.
     */
    virtual bool fetch(WorkerHandle &h, ArtifactManifest *out,
                       std::string *err) = 0;

    /** Cheap liveness check of the host itself — the re-admission
     *  probe for quarantined hosts. */
    virtual bool probe(std::string *err) = 0;
};

/** The artifact names fetch() must account for (checkpoint included:
 *  crashed shards resume from it, possibly on another host). */
const std::vector<std::string> &attemptArtifactNames();

/** Scan @p attemptDir and build a checksummed manifest of the
 *  standard artifacts — the whole fetch, for local transports. */
bool localManifest(const std::string &attemptDir,
                   ArtifactManifest *out, std::string *err);

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_TRANSPORT_TRANSPORT_HH
