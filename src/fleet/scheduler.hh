/**
 * @file
 * FleetScheduler: the supervision state machine, pure of any process
 * or thread handling so every transition is unit-testable with a fake
 * clock.
 *
 * Per-job lifecycle:
 *
 *     Pending ──claim──> Running ──success──────────> Done
 *                         │   ^
 *                 failure │   │ claim, once ready (clock)
 *                         v   │
 *                        Backoff
 *
 *     A failure at the attempt cap goes to Failed instead.
 *
 * Every claim starts one attempt, numbered from 1; a failure of any
 * kind (the launch itself, a nonzero exit, a signal, a hang kill)
 * burns it.  A failure carries whether the shard left a resumable
 * checkpoint; when it did (and the policy allows), the next attempt
 * is marked to resume from the ring instead of rerunning from tick 0.
 * Failed jobs are terminal but never abort the sweep: the fleet
 * completes and reports them in the merged report's failed_jobs
 * section.
 */

#ifndef VIP_FLEET_SCHEDULER_HH
#define VIP_FLEET_SCHEDULER_HH

#include <cstddef>
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
    Running,  ///< claimed by a worker slot
    Backoff,  ///< failed, waiting out the delay
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
};

class FleetScheduler
{
  public:
    FleetScheduler(std::vector<FleetJob> jobs, FleetPolicy policy);

    /**
     * Claim the next job eligible to start at wall time @p nowMs:
     * Pending jobs first (spec order), then Backoff jobs whose delay
     * has elapsed.  Marks it Running and counts the attempt.
     * @return the job index, or npos when nothing is eligible now.
     */
    std::size_t claimNext(double nowMs);
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** The Running attempt of job @p idx succeeded: Done. */
    void onSuccess(std::size_t idx);

    /** The Running attempt of job @p idx failed at @p nowMs: Backoff,
     *  or Failed at the attempt cap. */
    void onFailure(std::size_t idx, double nowMs, bool canResume);

    /** True when no job is Pending, Running, or in Backoff. */
    bool allSettled() const;

    const std::vector<JobProgress> &jobs() const { return _jobs; }
    const JobProgress &job(std::size_t idx) const { return _jobs[idx]; }

  private:
    JobProgress &running(std::size_t idx, const char *what);

    std::vector<JobProgress> _jobs;
    FleetPolicy _policy;
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_SCHEDULER_HH
