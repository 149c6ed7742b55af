/**
 * @file
 * System Agent: the centralized interconnect of the handheld SoC.
 *
 * Every byte that moves on the platform crosses the SA: CPU/IP DMA to
 * DRAM, and (in chained modes) IP-to-IP sub-frame forwarding plus the
 * low-bandwidth flow-control credit signals.  The SA is modelled as a
 * single shared link with a fixed bandwidth and per-hop latency;
 * transfers serialize on it, which is exactly the shared-conduit
 * contention the paper describes.
 */

#ifndef VIP_SA_SYSTEM_AGENT_HH
#define VIP_SA_SYSTEM_AGENT_HH

#include <functional>
#include <vector>

#include "fault/fault_injector.hh"
#include "mem/memory_controller.hh"
#include "power/energy_account.hh"
#include "sim/sim_object.hh"

namespace vip
{

/** System Agent configuration. */
struct SaConfig
{
    /** Link bandwidth, bytes per ns (default 32 GB/s). */
    double bytesPerNs = 32.0;
    /** Per-hop latency added to every transfer. */
    Tick hopLatency = fromNs(40);
    /** Latency of a credit/doorbell signal (no bandwidth charged). */
    Tick signalLatency = fromNs(20);
    SaPowerParams power{};
};

/** The central interconnect and controller. */
class SystemAgent : public SimObject
{
  public:
    using Callback = std::function<void()>;

    SystemAgent(System &system, std::string name, const SaConfig &cfg,
                MemoryController &mem, EnergyLedger &ledger,
                FaultInjector *faults = nullptr);

    /**
     * DMA a transaction to/from DRAM.  Charges SA occupancy for the
     * payload, then issues the DRAM access; req.onComplete fires when
     * the DRAM transaction finishes.  The request waits in a pooled
     * slot while it crosses the link, so this never allocates once
     * the pool has grown to the platform's peak DMA concurrency.
     */
    void memoryAccess(MemRequest req);

    /**
     * Forward @p bytes from one IP's output to another IP's input
     * lane (IP-to-IP communication).  @p on_delivered fires when the
     * payload has crossed the SA.  No DRAM involvement.
     */
    void peerTransfer(std::uint32_t bytes, Callback on_delivered);

    /**
     * Deliver a low-bandwidth signal (flow-control credit, hardware
     * doorbell between chained IPs).  Only latency, no occupancy.
     */
    void signal(Callback on_delivered);

    const SaConfig &config() const { return _cfg; }
    MemoryController &memory() { return _mem; }

    std::uint64_t bytesMoved() const { return _bytesMoved; }
    std::uint64_t peerBytes() const { return _peerBytes; }
    std::uint64_t signalsSent() const { return _signals; }

    /** CRC-failed payload crossings that were retransmitted. */
    std::uint64_t transferRetries() const { return _xferRetries; }

    /** @{ Byte ledger: accepted == delivered + in flight. */
    /** Payload bytes handed to the SA for transfer. */
    std::uint64_t bytesAccepted() const { return _bytesAccepted; }
    /** Payload bytes whose delivery callback has fired. */
    std::uint64_t bytesDelivered() const { return _bytesDelivered; }
    /** Payload bytes currently crossing the link. */
    std::uint64_t bytesInFlight() const { return _bytesInFlight; }
    /** Bytes re-serialized on the link by CRC retransmissions. */
    std::uint64_t bytesRetransmitted() const
    {
        return _bytesRetransmitted;
    }
    /** @} */

    /** Fraction of elapsed time the link was busy. */
    double utilization() const;

    void finalize() override;
    void registerStats(StatRegistry &registry) override;

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

    /**
     * True when no payload is crossing the link and no signal
     * delivery is pending — the SA owns no re-creatable events, so a
     * checkpoint here captures it with plain counters.
     */
    bool
    quiescent() const
    {
        return _bytesInFlight == 0 && _signalsInFlight == 0;
    }

    /** Checkpoint/restore. */
    void io(StateIO &io);

  private:
    /** Charge occupancy for @p bytes; returns the delivery tick. */
    Tick occupy(std::uint32_t bytes);

    /**
     * Move @p bytes across the link, retransmitting (each attempt
     * re-serializes on the link and re-charges energy) while the
     * injector flags the payload's CRC bad, bounded by the plan's
     * transfer retry budget; then invoke @p done.  @p done rides in
     * the delivery event's capture: a Callback for peer transfers, a
     * two-word lambda for DRAM accesses.
     */
    template <typename Done>
    void transferAttempt(std::uint32_t bytes, Done done,
                         std::uint32_t attempt);

    SaConfig _cfg;
    MemoryController &_mem;
    EnergyAccount &_energy;
    FaultInjector *_faults;

    Tick _busyUntil = 0;
    Tick _busyTicks = 0;

    std::uint64_t _bytesMoved = 0;
    std::uint64_t _peerBytes = 0;
    std::uint64_t _signals = 0;
    std::uint64_t _xferRetries = 0;
    std::uint64_t _bytesAccepted = 0;
    std::uint64_t _bytesDelivered = 0;
    std::uint64_t _bytesInFlight = 0;
    std::uint64_t _bytesRetransmitted = 0;
    /** Signal deliveries scheduled but not yet fired (not digested —
     *  purely a quiescence gate; always 0 at a checkpoint). */
    std::uint64_t _signalsInFlight = 0;

    /** DRAM-bound requests crossing the link, by slot; a free slot
     *  has bytes == 0.  Empty of live slots at every quiescent point,
     *  so it is never checkpointed. */
    std::vector<MemRequest> _parked;
    std::vector<std::uint32_t> _parkedFree; ///< free slots, LIFO

    // ---- observability (tracer string ids; never digested) ----
    std::uint32_t _obsTrkLink = 0;
    std::uint32_t _obsNmXfer = 0;
    std::uint32_t _obsNmRetx = 0;
};

} // namespace vip

#endif // VIP_SA_SYSTEM_AGENT_HH
