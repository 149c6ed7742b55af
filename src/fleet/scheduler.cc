#include "fleet/scheduler.hh"

#include "fleet/backoff.hh"
#include "sim/logging.hh"

namespace vip
{
namespace fleet
{

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Pending: return "pending";
      case JobState::Running: return "running";
      case JobState::Backoff: return "backoff";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
    }
    return "?";
}

FleetScheduler::FleetScheduler(std::vector<FleetJob> jobs,
                               FleetPolicy policy)
    : _policy(policy)
{
    _jobs.reserve(jobs.size());
    for (auto &j : jobs) {
        JobProgress p;
        p.job = std::move(j);
        _jobs.push_back(std::move(p));
    }
}

std::size_t
FleetScheduler::claimNext(double nowMs)
{
    std::size_t pick = npos;
    for (std::size_t i = 0; i < _jobs.size(); ++i) {
        const JobProgress &p = _jobs[i];
        if (p.state == JobState::Pending) {
            pick = i;
            break;
        }
        if (p.state == JobState::Backoff && nowMs >= p.readyAtMs &&
            pick == npos)
            pick = i;
    }
    if (pick != npos) {
        _jobs[pick].state = JobState::Running;
        ++_jobs[pick].attempts;
    }
    return pick;
}

JobProgress &
FleetScheduler::running(std::size_t idx, const char *what)
{
    vip_assert(idx < _jobs.size(), what, ": job ", idx);
    JobProgress &p = _jobs[idx];
    vip_assert(p.state == JobState::Running, what, " on a job in state ",
               jobStateName(p.state));
    return p;
}

void
FleetScheduler::onSuccess(std::size_t idx)
{
    JobProgress &p = running(idx, "onSuccess");
    p.state = JobState::Done;
    p.resumeNext = false;
}

void
FleetScheduler::onFailure(std::size_t idx, double nowMs, bool canResume)
{
    JobProgress &p = running(idx, "onFailure");
    if (p.attempts >= _policy.maxAttempts) {
        p.state = JobState::Failed;
        p.resumeNext = false;
        return;
    }
    p.state = JobState::Backoff;
    p.readyAtMs =
        nowMs + retryDelayMs(_policy, p.job.id, p.attempts);
    p.resumeNext = _policy.resume && canResume;
}

bool
FleetScheduler::allSettled() const
{
    for (const auto &p : _jobs) {
        if (p.state == JobState::Pending ||
            p.state == JobState::Running ||
            p.state == JobState::Backoff)
            return false;
    }
    return true;
}

} // namespace fleet
} // namespace vip
