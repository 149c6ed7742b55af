/**
 * @file
 * FleetScheduler: the supervision state machine, pure of any process
 * or thread handling so every transition is unit-testable with a fake
 * clock.
 *
 * Per-job lifecycle:
 *
 *     Pending ──claim──> Running ──accepted success──────> Done
 *        ^                  │  │
 *        │     launch failed│  ├─failure, attempts left──> Backoff
 *        │  (claim released)│  │        │
 *        ├──────────────────┘  ├─lease expired───────────> Backoff
 *        └──ready (clock)──────┘        │
 *                                       └─attempt cap────> Failed
 *
 * Ownership is lease-fenced.  Every claim issues a monotonically
 * increasing fencing token and a lease deadline; the lease renews on
 * any evidence the attempt is alive (a Running poll, heartbeat
 * progress).  When a lease expires — partitioned host, wedged
 * transport — the job is released for another worker under a larger
 * token.  Results are *accepted*, not just reported: an artifact
 * set carrying a stale token (a zombie attempt from an expired lease
 * that finished anyway) is rejected, never merged; with
 * the current token it is accepted even from Backoff/Failed (a
 * zombie rescue: the attempt outlived its lease but no newer attempt
 * was ever issued), and a Done job never accepts twice.  Exactly
 * once, no matter how late the network delivers.
 *
 * A failure carries whether the shard left a resumable checkpoint;
 * when it did (and the policy allows), the next attempt is marked to
 * resume from the ring instead of rerunning from tick 0.  Failed jobs
 * are terminal but never abort the sweep: the fleet completes and
 * reports them in the merged report's failed_jobs section — except
 * failAllUnsettled(), the every-host-dead terminal path.
 */

#ifndef VIP_FLEET_SCHEDULER_HH
#define VIP_FLEET_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fleet/job_spec.hh"

namespace vip
{
namespace fleet
{

enum class JobState
{
    Pending,  ///< waiting for a worker slot
    Running,  ///< claimed by a worker, lease live
    Backoff,  ///< failed or lease-expired, waiting out the delay
    Done,     ///< completed successfully
    Failed,   ///< attempt cap reached; terminal
};

const char *jobStateName(JobState s);

/** What the scheduler's decisions read about one job.  Everything a
 *  report says beyond this lives in the journal (journal.hh). */
struct JobProgress
{
    FleetJob job;
    JobState state = JobState::Pending;
    int attempts = 0;           ///< attempts started so far
    double readyAtMs = 0.0;     ///< Backoff: eligible wall time
    bool resumeNext = false;    ///< next attempt restores a checkpoint

    /** @{ lease-fenced ownership */
    std::uint64_t token = 0;    ///< newest fencing token issued
    double leaseUntilMs =
        std::numeric_limits<double>::infinity();
    /** @} */
};

class FleetScheduler
{
  public:
    FleetScheduler(std::vector<FleetJob> jobs, FleetPolicy policy);

    /**
     * Claim the next job eligible to start at wall time @p nowMs:
     * Pending jobs first (spec order), then Backoff jobs whose delay
     * has elapsed.  Marks it Running, counts the attempt, and issues
     * a fresh fencing token with a lease of policy.leaseMs (0 =
     * unleased, never expires).
     * @return the job index, or npos when nothing is eligible now.
     */
    std::size_t claimNext(double nowMs);
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /**
     * The launch itself failed (a transport error: the worker never
     * existed, so no zombie is possible).  Returns the job to
     * Pending without burning the attempt; another host picks it up.
     */
    void releaseClaim(std::size_t idx);

    /** Evidence the attempt is alive: push the lease out. */
    void renewLease(std::size_t idx, double nowMs);

    /** Running with an expired lease at @p nowMs. */
    bool leaseExpired(std::size_t idx, double nowMs) const;

    /**
     * Give up on a Running attempt whose lease lapsed.  Burns the
     * attempt (Backoff or Failed at the cap) but keeps the token:
     * should the zombie still finish before a retry claims the job,
     * its result is rescued rather than wasted.
     */
    void onLeaseExpired(std::size_t idx, double nowMs, bool canResume);

    /**
     * Offer a successful result under @p token.  Accepted (true)
     * when the token is current and the job has not completed some
     * other way; rejected (false) for stale tokens and duplicates.
     * Only accepted offers may be merged.
     */
    bool acceptSuccess(std::size_t idx, std::uint64_t token);

    /**
     * Offer a failure under @p token.  Acted on (true) only for the
     * current token of a still-Running job; stale and post-expiry
     * reports are ignored (false) — their attempt was already
     * accounted.
     */
    bool acceptFailure(std::size_t idx, std::uint64_t token,
                       double nowMs, bool canResume);

    /**
     * Terminal degradation (every host dead): everything not yet
     * Done or Failed becomes Failed.  Returns the abandoned jobs.
     */
    std::vector<std::size_t> failAllUnsettled();

    /** True when no job is Pending, Running, or in Backoff. */
    bool allSettled() const;

    const std::vector<JobProgress> &jobs() const { return _jobs; }
    const JobProgress &job(std::size_t idx) const { return _jobs[idx]; }
    const FleetPolicy &policy() const { return _policy; }

  private:
    void startAttempt(JobProgress &p, double nowMs);
    /** The attempt is over: Backoff, or Failed at the attempt cap. */
    void retire(JobProgress &p, double nowMs, bool canResume);

    std::vector<JobProgress> _jobs;
    FleetPolicy _policy;
    std::uint64_t _nextToken = 0;
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_SCHEDULER_HH
