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

void
FleetScheduler::startAttempt(JobProgress &p, double nowMs)
{
    p.state = JobState::Running;
    ++p.attempts;
    p.token = ++_nextToken;
    p.leaseUntilMs =
        _policy.leaseMs > 0.0
            ? nowMs + _policy.leaseMs
            : std::numeric_limits<double>::infinity();
}

std::size_t
FleetScheduler::claimNext(double nowMs)
{
    std::size_t backoffPick = npos;
    for (std::size_t i = 0; i < _jobs.size(); ++i) {
        JobProgress &p = _jobs[i];
        if (p.state == JobState::Pending) {
            startAttempt(p, nowMs);
            return i;
        }
        if (p.state == JobState::Backoff && nowMs >= p.readyAtMs &&
            backoffPick == npos) {
            backoffPick = i;
        }
    }
    if (backoffPick != npos)
        startAttempt(_jobs[backoffPick], nowMs);
    return backoffPick;
}

void
FleetScheduler::releaseClaim(std::size_t idx)
{
    vip_assert(idx < _jobs.size(), "releaseClaim: job ", idx);
    JobProgress &p = _jobs[idx];
    vip_assert(p.state == JobState::Running, "releaseClaim on a job "
               "in state ", jobStateName(p.state));
    // The worker never started: the attempt doesn't count, and the
    // token can never surface in a result.
    p.state = JobState::Pending;
    --p.attempts;
    p.leaseUntilMs = std::numeric_limits<double>::infinity();
}

void
FleetScheduler::renewLease(std::size_t idx, double nowMs)
{
    vip_assert(idx < _jobs.size(), "renewLease: job ", idx);
    JobProgress &p = _jobs[idx];
    if (p.state == JobState::Running && _policy.leaseMs > 0.0)
        p.leaseUntilMs = nowMs + _policy.leaseMs;
}

bool
FleetScheduler::leaseExpired(std::size_t idx, double nowMs) const
{
    const JobProgress &p = _jobs[idx];
    return p.state == JobState::Running && nowMs > p.leaseUntilMs;
}

void
FleetScheduler::retire(JobProgress &p, double nowMs, bool canResume)
{
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

void
FleetScheduler::onLeaseExpired(std::size_t idx, double nowMs,
                               bool canResume)
{
    vip_assert(idx < _jobs.size(), "onLeaseExpired: job ", idx);
    JobProgress &p = _jobs[idx];
    vip_assert(p.state == JobState::Running, "onLeaseExpired on a "
               "job in state ", jobStateName(p.state));
    // The token deliberately stays current: if the zombie finishes
    // before a retry claims this job, its result is rescued.
    retire(p, nowMs, canResume);
}

bool
FleetScheduler::acceptSuccess(std::size_t idx, std::uint64_t token)
{
    vip_assert(idx < _jobs.size(), "acceptSuccess: job ", idx);
    JobProgress &p = _jobs[idx];
    // A stale token lost the race to a newer attempt.  From Backoff
    // or Failed the current token is a rescue: the attempt outlived
    // its lease but no newer attempt was ever issued, so its work is
    // valid.  Done already committed once (a duplicate delivery must
    // not merge twice); a released (Pending) claim never ran.
    if (token != p.token || p.state == JobState::Done ||
        p.state == JobState::Pending)
        return false;
    p.state = JobState::Done;
    p.resumeNext = false;
    p.leaseUntilMs = std::numeric_limits<double>::infinity();
    return true;
}

bool
FleetScheduler::acceptFailure(std::size_t idx, std::uint64_t token,
                              double nowMs, bool canResume)
{
    vip_assert(idx < _jobs.size(), "acceptFailure: job ", idx);
    JobProgress &p = _jobs[idx];
    // Stale token, or an attempt already written off by lease
    // expiry — either way this failure is already accounted.
    if (token != p.token || p.state != JobState::Running)
        return false;
    p.leaseUntilMs = std::numeric_limits<double>::infinity();
    retire(p, nowMs, canResume);
    return true;
}

std::vector<std::size_t>
FleetScheduler::failAllUnsettled()
{
    std::vector<std::size_t> abandoned;
    for (std::size_t i = 0; i < _jobs.size(); ++i) {
        JobProgress &p = _jobs[i];
        if (p.state == JobState::Done || p.state == JobState::Failed)
            continue;
        p.state = JobState::Failed;
        p.resumeNext = false;
        abandoned.push_back(i);
    }
    return abandoned;
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
