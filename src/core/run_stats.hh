/**
 * @file
 * Results of one platform run: everything the paper's figures plot.
 */

#ifndef VIP_CORE_RUN_STATS_HH
#define VIP_CORE_RUN_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/trace.hh"
#include "fault/fault_plan.hh"
#include "obs/latency.hh"

namespace vip
{

/** Per-flow QoS outcome. */
struct FlowResult
{
    std::string name;
    bool qosCritical = true;
    double fps = 0.0;
    std::uint64_t generated = 0;
    std::uint64_t completed = 0;
    std::uint64_t violations = 0; ///< completed after deadline
    std::uint64_t drops = 0;      ///< missed by > one period
    /** @{ Overload protection. */
    std::uint64_t shed = 0;       ///< dropped whole at the chain head
    std::uint64_t inFlight = 0;   ///< still in the pipeline at run end
    bool admitted = true;         ///< false: rejected by admission
    double nominalFps = 0.0;      ///< requested rate before down-rating
    /** @} */
    double meanFlowTimeMs = 0.0;  ///< latency from nominal generation
    double meanTransitMs = 0.0;   ///< pipeline transit (start->done)
    double achievedFps = 0.0;     ///< displayed (non-dropped) rate
};

/** Per-IP activity. */
struct IpResult
{
    std::string name;
    double activeMs = 0.0;
    double stallMs = 0.0;
    double utilization = 0.0;     ///< active / (active + stall)
    /** Input reservations past lane capacity (0 = credits honored). */
    std::uint64_t laneOverflows = 0;
    std::uint64_t contextSwitches = 0;
    /** DRAM bytes this IP moved (its DMA traffic attribution). */
    std::uint64_t memBytes = 0;
    /** @{ Fault recovery (all zero without a fault plan). */
    std::uint64_t watchdogResets = 0;
    std::uint64_t unitRetries = 0;
    std::uint64_t framesDegraded = 0;
    /** @} */
};

/** Aggregate results of one run. */
struct RunStats
{
    std::string configName;
    std::string workloadName;
    double seconds = 0.0;

    /** @{ Energy, millijoules, by category. */
    double cpuEnergyMj = 0.0;
    double dramEnergyMj = 0.0;
    double saEnergyMj = 0.0;
    double ipEnergyMj = 0.0;
    double bufferEnergyMj = 0.0;
    double totalEnergyMj = 0.0;
    /** Total energy / QoS-critical frames completed. */
    double energyPerFrameMj = 0.0;
    /** @} */

    /** @{ QoS (Fig 18) and performance (Fig 17). */
    std::uint64_t framesGenerated = 0; ///< QoS-critical flows
    std::uint64_t framesCompleted = 0;
    std::uint64_t violations = 0;
    std::uint64_t drops = 0;
    double dropRate = 0.0;       ///< drops / completed
    double violationRate = 0.0;
    /** @{ Overload protection (all zero under BestEffort and no load). */
    std::uint64_t framesShed = 0;    ///< dropped at the chain head
    double shedRate = 0.0;           ///< shed / generated
    std::uint32_t flowsRejected = 0; ///< refused by admission
    std::uint32_t flowsDownRated = 0;///< FPS halved by admission
    std::uint64_t laneOverflows = 0; ///< summed over IPs (must be 0)
    /** @} */
    double meanFlowTimeMs = 0.0; ///< across QoS-critical frames
    double meanTransitMs = 0.0;  ///< pipeline transit view
    double achievedFps = 0.0;    ///< mean per-flow displayed FPS
    /** @} */

    /** @{ CPU (Figs 2, 16). */
    std::uint64_t interrupts = 0;
    double interruptsPer100ms = 0.0;
    std::uint64_t instructions = 0;
    double cpuActiveMs = 0.0;          ///< summed over cores
    double cpuActiveMsPerFrame = 0.0;
    double cpuSleepFraction = 0.0;     ///< of core-time asleep
    /** @} */

    /** @{ Memory (Fig 3). */
    double avgMemBandwidthGBps = 0.0;
    double memBytesGB = 0.0;
    double fracTimeAbove80PctBw = 0.0;
    double memRowHitRate = 0.0;
    /** @} */

    double saUtilization = 0.0;

    /**
     * Aggregate fault-injection and recovery counters for the run
     * (all zero when no fault plan was configured).
     */
    FaultStats faults;

    /** @{ Invariant audit (all zero under --audit=off). */
    std::uint64_t auditPasses = 0;
    std::uint64_t auditRecords = 0;
    std::uint64_t auditViolations = 0;
    /** FNV-1a over the whole digest stream (run fingerprint). */
    std::uint64_t digestStreamHash = 0;
    /** @} */

    /**
     * Per-frame latency decomposition: end-to-end/transit plus
     * wait/compute/blocked/total per chain stage, as p50/p95/p99
     * (always collected; see src/obs/latency.hh).
     */
    LatencySummary latency;

    std::vector<FlowResult> flows;
    std::vector<IpResult> ips;

    /** Full frame trace (when SocConfig::recordTrace). */
    FrameTrace trace;

    /** The IpResult for a named IP kind ("VD"...), nullptr if absent. */
    const IpResult *ip(const std::string &name) const;
};

} // namespace vip

#endif // VIP_CORE_RUN_STATS_HH
