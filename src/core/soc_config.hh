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
    std::uint32_t gameBurstCap = 9;   ///< "<10 frames" for games
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
    double vsyncHz = 60.0;

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
     * The run's one sampler (--ts[=<glob>], --ts-out, --metrics-out,
     * --metrics-interval-ms, --checkpoint-on-steady).  Samples
     * glob-selected stats every interval from the event loop's
     * pre-service hook into bounded decimating ring buffers, streams
     * the metrics CSV, and runs the steady-state detector; purely
     * observational, so arming it leaves state digests bit-identical.
     */
    TsConfig ts{};

    /**
     * Unified stats registry dump (--stats-out): after the run, every
     * registered counter is written as self-describing JSON.  The
     * registry itself is always built and purely observational, so
     * setting this leaves state digests bit-identical.
     */
    std::string statsOut;

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
     * checkpointOut names the snapshot file written at the end of the
     * run (and, with checkpointEveryMs > 0, periodically at the first
     * quiescent point after each cadence boundary; each write rotates
     * the previous file to <file>.prev).  restorePath resumes a run
     * from a snapshot; the restored run must be started with the same
     * config/workload/seed — any skew is a SimFatal at load.  A
     * restored run's digest stream and stats output are bit-identical
     * to the uninterrupted run's.
     */
    std::string checkpointOut;
    double checkpointEveryMs = 0.0;
    std::string restorePath;
    /** @} */

    /**
     * Graceful-interrupt flag: when non-null and it becomes nonzero
     * (a signal number, stored by a SIGINT/SIGTERM handler or a fleet
     * supervisor), the run stops early at the first quiescent point —
     * after writing a final checkpoint to every armed checkpoint plan
     * (the flight-recorder ring included), so interrupted runs always
     * leave a resumable trail.  Simulation::interrupted() reports
     * whether the run was cut short; streamed outputs (metrics CSV)
     * are already flushed row-by-row and --stats-out is written by
     * the driver afterwards as usual.
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
    /**
     * Under Degrade, also shed when this many frames of the flow are
     * already in flight (the pipeline is hopelessly behind).
     */
    std::uint32_t overloadMaxInFlight = 32;
    /** @} */

    /**
     * Invariant-audit configuration (--audit).  Off by default: no
     * audit events are scheduled and no digest stream is recorded.
     */
    AuditConfig audit{};

    /**
     * No-progress guard interval in simulated seconds (0 disables).
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
