/**
 * @file
 * Per-host health scoring: consecutive transport failures send a
 * host to quarantine, re-admission probes (with widening intervals)
 * bring it back, and a host that keeps flapping — or never answers a
 * probe — is declared dead and its work reassigned for good.
 *
 * Only *transport* failures count (unreachable polls, failed
 * fetches, dead heartbeat probes, failed launches).  A worker
 * exiting nonzero is the job's problem, not the host's: a sweep
 * full of crashing configs must not quarantine a perfectly good
 * machine.
 *
 * All timing flows through caller-supplied nowMs, so the whole
 * state machine is unit-testable with a fake clock.
 */

#ifndef VIP_FLEET_HEALTH_HH
#define VIP_FLEET_HEALTH_HH

#include <string>

namespace vip
{
namespace fleet
{

struct HealthPolicy
{
    int quarantineAfter = 3;      ///< consecutive failures → quarantine
    double probeIntervalMs = 500; ///< first re-admission probe delay
    int maxProbes = 5;            ///< failed probes in one quarantine → dead
    int maxQuarantines = 3;       ///< re-quarantines → dead
};

enum class HostState
{
    Healthy,
    Quarantined, ///< no new work; periodic re-admission probes
    Dead,        ///< permanently out of the rotation
};

class HostHealth
{
  public:
    explicit HostHealth(HealthPolicy policy) : _policy(policy) {}

    HostState state() const { return _state; }
    bool usable() const { return _state == HostState::Healthy; }

    /** A transport op succeeded: clear the failure streak. */
    void onOpSuccess() { _consecutiveFailures = 0; }

    /** A transport op failed.  Returns true when this failure tips
     *  the host into quarantine (or straight to dead, if it has
     *  exhausted its re-admissions). */
    bool onOpFailure(double nowMs, const std::string &detail);

    /** A quarantined host whose next probe is due. */
    bool probeDue(double nowMs) const
    {
        return _state == HostState::Quarantined &&
               nowMs >= _nextProbeMs;
    }

    /** Probe answered: re-admit. */
    void onProbeSuccess();

    /** Probe failed.  Returns true when the host is now dead. */
    bool onProbeFailure(double nowMs, const std::string &detail);

    /** @{ what the journal's host records and a lease expiry's
     *  reason cite */
    int quarantines() const { return _quarantineCount; }
    const std::string &lastError() const { return _lastError; }
    /** @} */

  private:
    void enterQuarantine(double nowMs);

    HealthPolicy _policy;
    HostState _state = HostState::Healthy;
    int _consecutiveFailures = 0;
    int _quarantineCount = 0;     ///< times quarantined, ever
    int _probeFailures = 0;       ///< within the current quarantine
    double _nextProbeMs = 0.0;
    double _probeIntervalMs = 0.0;
    std::string _lastError;
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_HEALTH_HH
