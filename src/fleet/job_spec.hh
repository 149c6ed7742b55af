/**
 * @file
 * Declarative fleet job specs: the sweep a `vip_fleet` run executes.
 *
 * A spec is a JSON document naming the sweep axes (configs x
 * workloads x seeds x fault plans) plus the fleet policy (worker
 * count, retry/backoff, liveness deadline, checkpoint cadence).  The
 * parser expands the axes into the full cross product of jobs, each
 * with a unique shell-safe id, and rejects anything malformed with a
 * crisp SimFatal — never UB, never a half-parsed sweep:
 *
 * {
 *   "name": "nightly-sweep",
 *   "seconds": 0.4,
 *   "configs": ["vip", "baseline"],
 *   "workloads": ["W4", "A5"],
 *   "seeds": [1, 2, 3],
 *   "fault_plans": ["none", "light"],
 *   "audit": "periodic:1",
 *   "fleet": {
 *     "workers": 4,
 *     "max_attempts": 3,
 *     "backoff_base_ms": 250,
 *     "backoff_cap_ms": 10000,
 *     "heartbeat_deadline_ms": 5000,
 *     "heartbeat_grace_ms": 1000,
 *     "heartbeat_interval_ms": 1.0,
 *     "checkpoint_every_ms": 25,
 *     "resume": true,
 *     "digests": true
 *   }
 * }
 */

#ifndef VIP_FLEET_JOB_SPEC_HH
#define VIP_FLEET_JOB_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vip
{
namespace fleet
{

/** Supervision policy for one sweep. */
struct FleetPolicy
{
    /** Concurrent workers (vip_sim processes). */
    int workers = 2;

    /** Total tries per job, first run included (>= 1). */
    int maxAttempts = 3;

    /** @{ Backoff between attempts (wall-clock ms), decorrelated
     *  with seeded jitter: retry k waits min(cap, base + u * (3 *
     *  prev - base)) where u is drawn deterministically from (job
     *  id, attempt).  Prevents lockstep retry storms when many
     *  shards fail together while staying exactly reproducible.
     *  base 0 retries immediately. */
    double backoffBaseMs = 250.0;
    double backoffCapMs = 10000.0;
    /** @} */

    /**
     * Startup grace before the heartbeat watchdog arms (wall-clock
     * ms): a freshly launched worker gets this long to produce its
     * first metrics bytes before "no heartbeat" counts against it.
     * Covers process spawn and simulator warmup.
     */
    double heartbeatGraceMs = 1000.0;

    /**
     * Liveness watchdog: a worker whose heartbeat (its streamed
     * metrics CSV) does not advance for this many wall-clock ms is
     * declared hung and killed.  0 disables hang detection.
     */
    double heartbeatDeadlineMs = 5000.0;

    /**
     * Heartbeat cadence in *simulated* ms (--metrics-interval-ms of
     * every worker).  0 disables the heartbeat stream entirely —
     * and with it hang detection and sim-progress tracking.
     */
    double heartbeatIntervalMs = 1.0;

    /**
     * Checkpoint-ring cadence in simulated ms threaded into every
     * worker (--checkpoint-every-ms): a killed shard resumes from
     * the newest ring snapshot instead of rerunning from tick 0.
     */
    double checkpointEveryMs = 25.0;

    /** Resume killed/crashed shards from their checkpoint ring. */
    bool resume = true;

    /** Record a per-shard digest stream (--digest-out). */
    bool digests = false;
};

/** One expanded cell of the sweep. */
struct FleetJob
{
    std::string id;        ///< unique, shell-safe
    std::string config;    ///< CLI config name ("vip", ...)
    std::string workload;  ///< "A1".."A7" | "W1".."W8"
    std::uint64_t seed = 1;
    std::string faultPlan; ///< spec string; "" / "none" = fault-free
};

/** A fully parsed and validated sweep. */
struct JobSpec
{
    std::string name = "sweep";
    double seconds = 0.1;
    std::string audit;  ///< --audit spec; "" = off
    FleetPolicy fleet;
    /** Extra vip_sim flags appended verbatim to every attempt. */
    std::vector<std::string> extraArgs;
    /** The expanded cross product, spec order. */
    std::vector<FleetJob> jobs;

    /** Parse a spec document.  SimFatal on any malformed input. */
    static JobSpec parse(const std::string &text);
    /** Parse a spec file.  SimFatal when unreadable. */
    static JobSpec parseFile(const std::string &path);
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_JOB_SPEC_HH
