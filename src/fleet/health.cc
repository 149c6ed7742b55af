#include "fleet/health.hh"

#include <algorithm>

namespace vip
{
namespace fleet
{

bool
HostHealth::onOpFailure(double nowMs, const std::string &detail)
{
    if (_state == HostState::Dead)
        return false;
    _lastError = detail;
    if (_state == HostState::Quarantined)
        return false; // already benched; probes decide its fate
    if (++_consecutiveFailures < _policy.quarantineAfter)
        return false;
    enterQuarantine(nowMs);
    return true;
}

void
HostHealth::enterQuarantine(double nowMs)
{
    ++_quarantineCount;
    if (_quarantineCount > _policy.maxQuarantines) {
        // Flapping: it has burned every re-admission it gets.
        _state = HostState::Dead;
        return;
    }
    _state = HostState::Quarantined;
    _consecutiveFailures = 0;
    _probeFailures = 0;
    // Repeat offenders wait longer before their first probe.
    _probeIntervalMs = _policy.probeIntervalMs *
                       static_cast<double>(1 << std::min(
                           _quarantineCount - 1, 10));
    _nextProbeMs = nowMs + _probeIntervalMs;
}

void
HostHealth::onProbeSuccess()
{
    if (_state != HostState::Quarantined)
        return;
    _state = HostState::Healthy;
    _consecutiveFailures = 0;
    _probeFailures = 0;
}

bool
HostHealth::onProbeFailure(double nowMs, const std::string &detail)
{
    if (_state != HostState::Quarantined)
        return _state == HostState::Dead;
    _lastError = detail;
    if (++_probeFailures >= _policy.maxProbes) {
        _state = HostState::Dead;
        return true;
    }
    _probeIntervalMs = std::min(_probeIntervalMs * 2.0,
                                _policy.probeIntervalMs * 1024.0);
    _nextProbeMs = nowMs + _probeIntervalMs;
    return false;
}

} // namespace fleet
} // namespace vip
