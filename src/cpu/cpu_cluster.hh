/**
 * @file
 * CPU cluster: the 4-core host processor (Table 3).
 *
 * Tasks are load-balanced across cores the way the Android scheduler
 * spreads driver threads; interrupts go to the least-loaded awake core
 * (waking a sleeping core only when all are asleep), mimicking IRQ
 * balancing.
 */

#ifndef VIP_CPU_CPU_CLUSTER_HH
#define VIP_CPU_CPU_CLUSTER_HH

#include <memory>
#include <vector>

#include "cpu/cpu_core.hh"
#include "sim/state_io.hh"

namespace vip
{

/** The host CPU complex. */
class CpuCluster : public Auditable
{
  public:
    CpuCluster(System &system, const std::string &name,
               const CpuConfig &cfg, std::uint32_t cores,
               EnergyLedger &ledger);

    /** Run @p task on the least-loaded core. */
    void dispatch(CpuTask task);

    /** Deliver an interrupt. */
    void interrupt(CpuTask isr);

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(_cores.size());
    }

    CpuCore &core(std::uint32_t i) { return *_cores.at(i); }

    /** @{ Aggregates across cores. */
    Tick totalActiveTicks() const;
    Tick totalSleepTicks() const;
    std::uint64_t totalInstructions() const;
    std::uint64_t totalInterrupts() const;
    /** @} */

    /** @{ Auditable (delegates to every core) */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

    /** True when every core is quiescent (checkpointing). */
    bool
    quiescent() const
    {
        for (const auto &c : _cores) {
            if (!c->quiescent())
                return false;
        }
        return true;
    }

    /** Checkpoint/restore: the round-robin cursor plus every core. */
    void
    io(StateIO &io)
    {
        io.u64(_rr);
        for (auto &c : _cores)
            c->io(io);
    }

  private:
    CpuCore &pickForTask();
    CpuCore &pickForInterrupt();

    std::vector<std::unique_ptr<CpuCore>> _cores;
    std::size_t _rr = 0;
};

} // namespace vip

#endif // VIP_CPU_CPU_CLUSTER_HH
