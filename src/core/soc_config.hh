/**
 * @file
 * Full platform configuration (Table 3 defaults) and run settings.
 */

#ifndef VIP_CORE_SOC_CONFIG_HH
#define VIP_CORE_SOC_CONFIG_HH

#include <atomic>
#include <cstdint>
#include <map>

#include "core/system_config.hh"
#include "cpu/cpu_core.hh"
#include "driver/software_stack.hh"
#include "fault/fault_plan.hh"
#include "ip/ip_types.hh"
#include "mem/dram_config.hh"
#include "obs/prof_config.hh"
#include "obs/trace_config.hh"
#include "obs/ts_config.hh"
#include "sa/system_agent.hh"
#include "sim/audit.hh"

namespace vip
{

/**
 * What the driver does with a flow whose utilization demand does not
 * fit the remaining per-IP capacity (admission control at open()).
 */
enum class OverloadPolicy
{
    /** Refuse the open(): the flow never starts. */
    Reject,
    /**
     * Admit at a reduced rate: halve the target FPS until the flow
     * fits (bounded), and shed whole frames at the chain head when
     * the EDF slack stays negative at run time.
     */
    Degrade,
    /** Admit everything at full rate (the paper's open-loop mode). */
    BestEffort,
};

inline const char *
overloadPolicyName(OverloadPolicy p)
{
    switch (p) {
      case OverloadPolicy::Reject: return "reject";
      case OverloadPolicy::Degrade: return "degrade";
      case OverloadPolicy::BestEffort: return "besteffort";
    }
    return "?";
}

/** Everything needed to instantiate and run one platform. */
struct SocConfig
{
    /** Which of the five evaluated systems to model. */
    SystemConfig system = SystemConfig::Baseline;

    /** Simulated duration. */
    double simSeconds = 0.4;

    /** Deterministic seed (user-input models, phases). */
    std::uint64_t seed = 1;

    /** @{ Table 3 platform. */
    std::uint32_t cpuCores = 4;
    CpuConfig cpu{};
    DramConfig dram{};
    SaConfig sa{};
    /** @} */

    DriverCosts drivers{};

    /** @{ VIP hardware knobs (Section 5.5). */
    std::uint32_t vipLanes = 4;       ///< lanes when virtualized
    SchedPolicy vipSched = SchedPolicy::EDF;
    std::uint32_t laneBytes = 2048;   ///< 2 KB / 32 cache lines
    std::uint32_t subframeBytes = 1024;
    Tick contextSwitchPenalty = fromNs(500);
    /**
     * Handle full consumer lanes by spilling to DRAM instead of
     * stalling the producer (Section 5.5's rejected alternative;
     * exposed for the ablation study).
     */
    bool overflowToMemory = false;
    /** @} */

    /** @{ Frame-burst knobs (Section 4.3). */
    std::uint32_t burstFrames = 5;    ///< default/video burst size
    bool enableRollback = true;       ///< recompute on mid-burst input
    /** @} */

    /**
     * QoS deadline in frame periods after nominal generation.  Display
     * pipelines double-buffer, so a frame is on time when it completes
     * within two periods; it is *dropped* (never shown) one further
     * period later.
     */
    double deadlineFrames = 1.25;

    /**
     * Judge display-bound frames at vsync boundaries: a frame is only
     * visible at the next 60 Hz scanout after it completes, so QoS is
     * evaluated against that instant (off by default; the paper's
     * deadline bookkeeping uses completion time).
     */
    bool vsyncAligned = false;

    /** Record the full per-frame trace into RunStats. */
    bool recordTrace = false;

    /**
     * Execution tracing (--trace-out / --trace).  Disabled by
     * default; when enabled, the run is still bit-identical (the
     * tracer is purely observational and digest-neutral).
     */
    TraceConfig trace{};

    /**
     * Hot-path self-profiling (--prof[=out.json]).  Samples wall time
     * per event kind and queue occupancy; observational only, so an
     * enabled profiler leaves state digests bit-identical.
     */
    ProfConfig prof{};

    /**
     * The run's one sampler (--metrics-out, --ts=<glob>,
     * --metrics-interval-ms, --checkpoint-on-steady).  Every interval
     * it streams glob-selected stats, read from the event loop's
     * pre-service hook, as one row of the metrics CSV and steps the
     * steady-state detector; purely observational, so arming it
     * leaves state digests bit-identical.
     */
    TsConfig ts{};

    /**
     * Postmortem flight recorder (--postmortem-dir): when the run
     * dies (SimFatal/SimPanic, including the no-progress guard and
     * strict-audit violations), a crash bundle — crash.json,
     * stats.json, trace-tail.json — is written here before the error
     * propagates.  Enables an internal trace ring when tracing is
     * otherwise off (digest-neutral).
     */
    std::string postmortemDir;

    /** @{ Checkpoint/restore (--checkpoint-out / --restore).
     *
     * checkpointOut and the postmortemDir ring
     * (<postmortemDir>/checkpoint.vips) are the resume destinations:
     * at the first quiescent point at or after every
     * checkpointEveryMs boundary, one snapshot is written to each,
     * rotating the previous file to <file>.prev.  The end of the run
     * gets no snapshot.  restorePath resumes a run from a snapshot;
     * the restored run must be started with the same
     * config/workload/seed — any skew is a SimFatal at load.  A
     * restored run's digest stream and stats output are bit-identical
     * to the uninterrupted run's.
     */
    std::string checkpointOut;
    double checkpointEveryMs = 50.0;
    std::string restorePath;
    /** @} */

    /**
     * Graceful-interrupt flag: when non-null and it becomes nonzero
     * (a signal number, stored by a SIGINT/SIGTERM handler or a fleet
     * supervisor), the run stops early.  With a resume destination
     * armed it stops at the first quiescent point, after writing a
     * snapshot to every resume destination, so the interrupted run
     * leaves a resumable trail; with none it stops at once.  One-shot
     * snapshots (checkpointAt(), --checkpoint-on-steady) are never
     * written by an interrupt.  Simulation::interrupted() reports
     * whether the run was cut short; streamed outputs (metrics CSV)
     * are already flushed row by row, and the driver writes its
     * other outputs afterwards as usual.
     */
    const std::atomic<int> *interruptFlag = nullptr;

    /**
     * Fault-injection plan.  All probabilities default to zero, so a
     * plain config runs fault-free; a non-trivial plan instantiates a
     * FaultInjector shared by the IPs, the SA and the memory
     * controller.
     */
    FaultPlan fault{};

    /** @{ Overload protection (admission + run-time shedding). */
    OverloadPolicy overloadPolicy = OverloadPolicy::BestEffort;
    /**
     * Capacity fraction admission keeps free on every IP: a flow is
     * admitted only while the accumulated demand stays below
     * (1 - headroom) of the engine's byte throughput.
     */
    double admissionHeadroom = 0.05;
    /**
     * Under Degrade, shed the next frame at the chain head once this
     * many consecutive frames completed past their deadline.
     */
    std::uint32_t shedAfterLateFrames = 3;
    /** @} */

    /**
     * Invariant-audit configuration (--audit).  Off by default: no
     * audit events are scheduled and no digest stream is recorded.
     */
    AuditConfig audit{};

    /**
     * No-progress guard interval in simulated seconds (0 disables;
     * anything else must be finite and at least one tick, or the
     * Simulation constructor is a SimFatal).
     * If frames are in flight and no flow or IP retires any work for
     * a whole interval, the run aborts with a diagnostic occupancy
     * dump instead of spinning to the time limit.  The default is
     * generous: healthy pipelines retire sub-frames every few
     * milliseconds, so a quarter second of silence means a wedge.
     */
    double noProgressSec = 0.25;

    /** Per-kind IP parameter overrides (else defaultIpParams()). */
    std::map<IpKind, IpParams> ipOverrides;

    /** Resolve IP parameters for @p kind under this configuration. */
    IpParams
    ipParamsFor(IpKind kind) const
    {
        auto it = ipOverrides.find(kind);
        IpParams p =
            it != ipOverrides.end() ? it->second : defaultIpParams(kind);
        const ConfigTraits t = traitsOf(system);
        // Chained modes route per-flow data through lane buffers; a
        // non-virtualized IP still has a *single context*, expressed
        // as a coarse switch granularity (frame, or whole burst) and
        // a costlier reconfiguration penalty.
        p.numLanes = t.ipToIp ? vipLanes : 1;
        p.sched = t.virtualized ? vipSched : SchedPolicy::FIFO;
        if (t.virtualized) {
            p.switchGranularity = SwitchGranularity::Subframe;
            p.contextSwitchPenalty = contextSwitchPenalty;
        } else if (t.ipToIp) {
            p.switchGranularity = t.frameBurst
                ? SwitchGranularity::Transaction
                : SwitchGranularity::Frame;
            p.contextSwitchPenalty = 4 * contextSwitchPenalty;
        }
        p.laneBytes = laneBytes;
        p.subframeBytes = subframeBytes;
        p.overflowToMemory = t.ipToIp && overflowToMemory;
        return p;
    }
};

} // namespace vip

#endif // VIP_CORE_SOC_CONFIG_HH
