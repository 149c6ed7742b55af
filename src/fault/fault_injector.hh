/**
 * @file
 * FaultInjector: the single source of fault decisions for a run.
 *
 * One injector is shared by every component of a Simulation.  Each
 * inject*() call draws exactly one decision from the injector's own
 * deterministic RNG at a well-defined point of the (already
 * deterministic) event schedule, so a fixed (plan, workload, seed)
 * triple reproduces the same fault sequence bit for bit.
 *
 * The injector also centralizes the recovery bookkeeping: components
 * report watchdog resets, retries, retransmissions, degraded frames
 * and recovery latencies here, and Simulation::collect() folds the
 * totals into RunStats.
 */

#ifndef VIP_FAULT_FAULT_INJECTOR_HH
#define VIP_FAULT_FAULT_INJECTOR_HH

#include "fault/fault_plan.hh"
#include "sim/audit.hh"
#include "sim/random.hh"
#include "sim/state_io.hh"

namespace vip
{

/** Draws fault decisions and accumulates fault/recovery counters. */
class FaultInjector : public Auditable
{
  public:
    explicit FaultInjector(const FaultPlan &plan)
        : _plan(plan), _rng(plan.seed)
    {
        _plan.validate();
    }

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultPlan &plan() const { return _plan; }

    /** Outcome of one DRAM burst's ECC check. */
    enum class EccOutcome
    {
        None,
        Corrected,    ///< single-bit flip, fixed for a latency penalty
        Uncorrected,  ///< burst must be replayed
    };

    /** @{ Decision draws (each consumes one RNG sample). */

    /** Engine wedges at the start of this compute unit. */
    bool
    injectEngineHang()
    {
        if (!_rng.chance(_plan.engineHangProb))
            return false;
        ++_stats.engineHangs;
        return true;
    }

    /** This completed unit's output fails its CRC. */
    bool
    injectSubframeCorruption()
    {
        if (!_rng.chance(_plan.subframeCorruptProb))
            return false;
        ++_stats.corruptions;
        return true;
    }

    /** This SA payload transfer is corrupted in flight. */
    bool
    injectTransferError()
    {
        if (!_rng.chance(_plan.transferErrorProb))
            return false;
        ++_stats.transferErrors;
        return true;
    }

    /** ECC outcome of one DRAM burst. */
    EccOutcome
    injectEccEvent()
    {
        double u = _rng.uniform();
        if (u < _plan.eccUncorrectableProb) {
            ++_stats.eccUncorrectable;
            return EccOutcome::Uncorrected;
        }
        if (u < _plan.eccUncorrectableProb + _plan.eccCorrectableProb) {
            ++_stats.eccCorrectable;
            return EccOutcome::Corrected;
        }
        return EccOutcome::None;
    }

    /** @} */

    /** @{ Recovery bookkeeping (reported by the components). */
    void noteWatchdogReset() { ++_stats.watchdogResets; }
    void noteUnitRetry() { ++_stats.unitRetries; }
    void noteTransferRetry() { ++_stats.transferRetries; }
    void noteFrameDegraded() { ++_stats.framesDegraded; }

    /** Extra time a recovered unit spent beyond its nominal compute. */
    void
    noteRecoveryLatency(Tick extra)
    {
        ++_stats.recoveries;
        double ms = toMs(extra);
        _stats.recoverySumMs += ms;
        if (ms > _stats.recoveryMaxMs)
            _stats.recoveryMaxMs = ms;
    }
    /** @} */

    const FaultStats &stats() const { return _stats; }

    /** @{ Auditable */
    void
    auditInvariants(AuditContext &ctx) const override
    {
        // A watchdog only fires on an injected hang, and every
        // injected CRC error is retransmitted in the same decision.
        ctx.checkLe("fault.resets_le_hangs", _stats.watchdogResets,
                    _stats.engineHangs,
                    "watchdog reset without an injected hang");
        ctx.checkEq("fault.transfer_retry_pairing",
                    _stats.transferErrors, _stats.transferRetries,
                    "injected CRC errors != retransmissions");
    }

    void
    stateDigest(StateDigest &d) const override
    {
        d.add(_rng.state());
        d.add(_stats.engineHangs);
        d.add(_stats.corruptions);
        d.add(_stats.transferErrors);
        d.add(_stats.eccCorrectable);
        d.add(_stats.eccUncorrectable);
        d.add(_stats.watchdogResets);
        d.add(_stats.unitRetries);
        d.add(_stats.transferRetries);
        d.add(_stats.framesDegraded);
        d.add(_stats.recoveries);
        d.add(_stats.recoverySumMs);
        d.add(_stats.recoveryMaxMs);
    }
    /** @} */

    /** Checkpoint/restore (driven by the Simulation). */
    void
    io(StateIO &io)
    {
        std::uint64_t rng = _rng.state();
        io.u64(rng);
        if (io.loading())
            _rng.setState(rng);
        io.u64(_stats.engineHangs);
        io.u64(_stats.corruptions);
        io.u64(_stats.transferErrors);
        io.u64(_stats.eccCorrectable);
        io.u64(_stats.eccUncorrectable);
        io.u64(_stats.watchdogResets);
        io.u64(_stats.unitRetries);
        io.u64(_stats.transferRetries);
        io.u64(_stats.framesDegraded);
        io.u64(_stats.recoveries);
        io.d(_stats.recoverySumMs);
        io.d(_stats.recoveryMaxMs);
    }

  private:
    FaultPlan _plan;
    Random _rng;
    FaultStats _stats;
};

} // namespace vip

#endif // VIP_FAULT_FAULT_INJECTOR_HH
