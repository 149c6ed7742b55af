/**
 * @file
 * Virtual IP chain construction and arbitration (Sections 4.4, 5).
 *
 * A chain is the hardware realization of one flow: an ordered list of
 * IP cores with a buffer lane at each.  The manager supports two
 * binding disciplines:
 *
 *  - **Persistent** (VIP): every flow binds its own lane at every
 *    stage when the application open()s the chain; flows then share
 *    IPs concurrently under the hardware scheduler.
 *  - **Transactional** (IP-to-IP without virtualization): IPs have a
 *    single lane, so a flow must acquire the whole chain exclusively
 *    for each frame (or each burst).  Acquisition is all-or-nothing
 *    and FIFO, which is precisely the head-of-line blocking mechanism
 *    of Figure 7.
 */

#ifndef VIP_CORE_CHAIN_MANAGER_HH
#define VIP_CORE_CHAIN_MANAGER_HH

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "ip/ip_core.hh"

namespace vip
{

/** Handle to an instantiated chain. */
using ChainId = std::uint32_t;

/** Outcome of an admission-control feasibility check. */
struct AdmissionCheck
{
    /** Every stage fits under (1 - headroom) of its IP's capacity. */
    bool feasible = true;
    /** Highest per-IP load (existing + new demand) over the stages. */
    double worstLoad = 0.0;
    /** The stage IP that sets worstLoad. */
    const IpCore *bottleneck = nullptr;
};

/** Builds, binds and feeds virtual IP chains. */
class ChainManager : public Auditable
{
  public:
    using Granted = std::function<void()>;

    /**
     * Describe a chain for @p flow through @p ips.
     * @param nominal_edges  bytes entering each stage for a nominal
     *                       frame (per-frame overrides via feed()).
     */
    ChainId create(FlowId flow, std::vector<IpCore *> ips,
                   std::vector<std::uint64_t> nominal_edges,
                   IpCore::FrameExitFn on_exit,
                   IpCore::FrameStartFn on_start);

    /**
     * Bind lanes at every stage persistently (VIP open()).
     * @return false when some IP has no free lane.
     */
    bool bindPersistent(ChainId id);

    /**
     * Acquire the chain exclusively (transactional modes); @p granted
     * runs once every stage lane is bound.  FIFO across requesters.
     */
    void acquire(ChainId id, Granted granted);

    /** Release a transactional acquisition (after the last exit). */
    void release(ChainId id);

    /**
     * Tear a chain down for good (close() of the virtual device):
     * unbinds its lanes whatever the binding discipline was.  The
     * chain must be drained (no in-flight frames).
     */
    void close(ChainId id);

    /**
     * Feed one frame into the head of a bound chain.
     * @param edges     per-stage input bytes for this frame.
     * @param gen_span  sensor readout span for generated sources.
     * @param txn_end   this frame closes the flow's transaction (true
     *                  per frame, or only for a burst's last frame).
     */
    void feed(ChainId id, std::uint64_t frame_id,
              const std::vector<std::uint64_t> &edges, Addr addr,
              Tick deadline, Tick gen_span, bool txn_end = true);

    /** True while the chain's lanes are bound. */
    bool bound(ChainId id) const;

    /** Stage IPs of a chain. */
    const std::vector<IpCore *> &stages(ChainId id) const;

    /** Requesters queued behind busy chains right now. */
    std::size_t waiters() const { return _waiters.size(); }

    /** @{ -------------- Admission control ----------------
     * The driver's open()-time feasibility math: a flow at F frames/s
     * whose stage moves max(in, out) bytes per frame demands
     * F * max(in, out) / (clockHz * bytesPerCycle) of that IP.  The
     * manager keeps a per-IP load ledger; a flow is admitted while
     * every stage stays at or below (1 - headroom).
     */

    /** Capacity fraction of @p ip one flow's stage demands. */
    static double stageDemand(const IpCore &ip, std::uint64_t in_bytes,
                              std::uint64_t out_bytes, double fps);

    /**
     * Check whether a flow through @p ips (per-stage input bytes
     * @p edges, stage i's output = edges[i+1]) fits at @p fps on top
     * of the recorded load, keeping @p headroom of each IP free.
     */
    AdmissionCheck checkAdmission(const std::vector<IpCore *> &ips,
                                  const std::vector<std::uint64_t> &edges,
                                  double fps, double headroom) const;

    /** Charge an admitted flow's demand to the ledger. */
    void recordAdmission(const std::vector<IpCore *> &ips,
                         const std::vector<std::uint64_t> &edges,
                         double fps);

    /** Refund a closed flow's demand. */
    void releaseAdmission(const std::vector<IpCore *> &ips,
                          const std::vector<std::uint64_t> &edges,
                          double fps);

    /** Recorded utilization demand on @p ip (0 when unknown). */
    double ipLoad(const IpCore *ip) const;

    /** @} */

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

    /**
     * Checkpoint/restore (driven by the Simulation).  Chains hold
     * continuation lambdas and IpCore pointers, so the snapshot
     * stores only their POD identity (flow, binding, lane indices) in
     * creation order plus the admission ledger by IP name.  On load
     * every chain is re-created through @p recreate (the owning
     * FlowRuntime re-issues its create() call, minting identical ids)
     * and bound chains are rewired exactly as tryBind() did, against
     * lane bindings the IPs restored beforehand; @p ip_by_name maps
     * the ledger's names back to IPs.
     */
    void io(StateIO &io,
            const std::function<ChainId(FlowId)> &recreate,
            const std::function<IpCore *(const std::string &)>
                &ip_by_name);

  private:
    struct Chain
    {
        FlowId flow = 0;
        std::vector<IpCore *> ips;
        std::vector<std::uint64_t> nominalEdges;
        std::vector<int> lanes;
        bool isBound = false;
        bool persistent = false;
        bool sourceGenerated = false;
        IpCore::FrameExitFn onExit;
        IpCore::FrameStartFn onStart;
    };

    /** The admission ledger by IP name, sorted (stable across runs). */
    std::vector<std::pair<std::string, double>> loadsByName() const;
    bool tryBind(Chain &c);
    void unbind(Chain &c);
    void retryWaiters();
    bool overlapsWaiter(const Chain &c) const;

    std::vector<Chain> _chains;
    std::deque<std::pair<ChainId, Granted>> _waiters;
    /** Admission ledger: accumulated demand fraction per IP. */
    std::map<const IpCore *, double> _ipLoad;
};

} // namespace vip

#endif // VIP_CORE_CHAIN_MANAGER_HH
