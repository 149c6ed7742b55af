/**
 * @file
 * Retry/backoff arithmetic for the fleet supervisor, separated so the
 * math is unit-testable without spawning anything.
 */

#ifndef VIP_FLEET_BACKOFF_HH
#define VIP_FLEET_BACKOFF_HH

#include "fleet/job_spec.hh"

namespace vip
{
namespace fleet
{

/**
 * Deterministic unit draw in [0, 1) for retry @p failedAttempts of
 * @p jobId: FNV-1a over the id and attempt number, mixed through
 * splitmix64.  The same (job, attempt) always jitters identically —
 * sweeps stay reproducible — while distinct jobs failing together
 * spread out instead of retrying in lockstep.
 */
inline double
backoffUnitDraw(const std::string &jobId, int failedAttempts)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : jobId) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    h ^= static_cast<std::uint64_t>(failedAttempts);
    h *= 0x100000001b3ull;
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/**
 * Wall-clock delay before retrying job @p jobId after
 * @p failedAttempts failures (>= 1; fewer, or a zero base, give 0):
 * the AWS "decorrelated jitter" recipe, seeded,
 * d_k = min(cap, base + u_k * (3 * d_{k-1} - base)), with d_0 = base
 * and u_k drawn deterministically per (job, attempt).  It grows
 * about 1.5x per failure on average, and concurrent failures spread
 * across the window instead of retrying in lockstep.  Never returns
 * less than base or more than cap.
 */
inline double
retryDelayMs(const FleetPolicy &p, const std::string &jobId,
             int failedAttempts)
{
    if (failedAttempts < 1 || p.backoffBaseMs <= 0.0)
        return 0.0;
    double prev = p.backoffBaseMs;
    double delay = p.backoffBaseMs;
    for (int k = 1; k <= failedAttempts; ++k) {
        const double u = backoffUnitDraw(jobId, k);
        delay = p.backoffBaseMs + u * (3.0 * prev - p.backoffBaseMs);
        if (delay > p.backoffCapMs)
            delay = p.backoffCapMs;
        if (delay < p.backoffBaseMs)
            delay = p.backoffBaseMs;
        prev = delay;
    }
    return delay;
}

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_BACKOFF_HH
