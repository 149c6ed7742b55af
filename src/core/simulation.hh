/**
 * @file
 * Simulation: the library's top-level entry point.
 *
 * Builds the full platform (CPU cluster, System Agent, LPDDR3 memory,
 * one IP core per kind the workload touches) from a SocConfig,
 * instantiates a FlowRuntime per application flow, runs the event
 * loop for the configured duration and returns RunStats.
 *
 * Typical use:
 * @code
 *   vip::SocConfig cfg;
 *   cfg.system = vip::SystemConfig::VIP;
 *   vip::Simulation sim(cfg, vip::WorkloadCatalog::byIndex(4));
 *   vip::RunStats s = sim.run();
 * @endcode
 */

#ifndef VIP_CORE_SIMULATION_HH
#define VIP_CORE_SIMULATION_HH

#include <map>
#include <memory>

#include "app/workload.hh"
#include "core/chain_manager.hh"
#include "core/flow_runtime.hh"
#include "core/run_stats.hh"
#include "core/soc_config.hh"
#include "fault/fault_injector.hh"
#include "obs/latency.hh"
#include "obs/profiler.hh"
#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"
#include "obs/tracer.hh"
#include "sim/snapshot.hh"

namespace vip
{

/** One platform + workload + configuration run. */
class Simulation
{
  public:
    Simulation(SocConfig cfg, Workload workload);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Run for cfg.simSeconds and collect results (call once). */
    RunStats run();

    /** @{ Component access (tests, benches, custom analyses). */
    System &system() { return _sys; }
    MemoryController &memory() { return *_mem; }
    SystemAgent &systemAgent() { return *_sa; }
    CpuCluster &cpus() { return *_cpus; }
    ChainManager &chains() { return *_chains; }
    IpCore *ip(IpKind kind);
    /** The run's fault injector; null when the plan is all-zeros. */
    FaultInjector *faults() { return _faults.get(); }
    /** The run's invariant auditor (inactive under --audit=off). */
    Auditor &auditor() { return _auditor; }
    /** The run's tracer; null unless cfg.trace is enabled. */
    Tracer *tracer() { return _tracer.get(); }
    /** The hot-path profiler; null unless cfg.prof is enabled. */
    Profiler *profiler() { return _profiler.get(); }
    /** The run's sampler (metrics CSV + steady detector); null
     *  unless cfg.ts is enabled. */
    TimeSeries *timeseries() { return _ts.get(); }
    const TimeSeries *timeseries() const { return _ts.get(); }
    /** Always-on per-frame latency decomposition. */
    LatencyCollector &latencyCollector() { return *_latency; }
    /** The unified stats registry (always built, populated in ctor). */
    StatRegistry &statsRegistry() { return _registry; }
    const SocConfig &config() const { return _cfg; }
    const Workload &workload() const { return _wl; }
    const std::vector<std::unique_ptr<FlowRuntime>> &flows() const
    {
        return _flows;
    }
    /** @} */

    /**
     * Schedule an application to stop (the user closes it) at
     * @p when: its flows stop generating, drain, and release their
     * chain lanes.  Call before run().
     */
    void stopAppAt(const std::string &app_name, Tick when);

    /**
     * Arm a one-shot checkpoint, written once to @p path at the first
     * quiescent point at or after tick @p when and never rewritten.
     * Call before run().  Checkpoint writes are observational: they
     * never perturb the event stream or digests.
     */
    void checkpointAt(Tick when, std::string path);

    /** Checkpoint files written so far (one per destination per
     *  cadence boundary, plus one-shots). */
    std::uint64_t checkpointsWritten() const
    {
        return _checkpointsWritten;
    }

    /** True when the --checkpoint-on-steady snapshot was written, by
     *  this run or before the snapshot it resumed from; false while
     *  undetected or when no quiescent point followed detection. */
    bool steadySnapshotWritten() const;

    /** @{ Graceful interrupts (cfg.interruptFlag).
     *
     * interrupted() is true when the run stopped early because the
     * flag fired; interruptSignal() is the stored signal number.  The
     * newest checkpoint (the resume destinations, written at the
     * stopping quiescent point when any is armed) is
     * lastCheckpointPath(). */
    bool interrupted() const { return _interrupted; }
    int interruptSignal() const { return _interruptSig; }
    const std::string &lastCheckpointPath() const
    {
        return _lastCheckpointPath;
    }
    Tick lastCheckpointTick() const { return _lastCheckpointTick; }
    /** @} */

    /**
     * Write the unified stats registry as self-describing JSON
     * (schemaVersion'd, provenance- and run-context-stamped); the
     * format vip_stats_diff compares.  Call after run().
     */
    void writeStatsJson(std::ostream &os) const;

    /**
     * Write the profiler report (--prof) as self-describing JSON;
     * the format tools/vip_prof summarizes.  Call after run();
     * requires cfg.prof to be enabled.
     */
    void writeProfJson(std::ostream &os) const;

    /**
     * Convenience: build + run in one call.
     */
    static RunStats run(SocConfig cfg, Workload workload);

  private:
    void build();
    void attachAuditors();
    void buildStatsRegistry();
    void scheduleAudit();
    /** The periodic audit event fired: audit, then re-arm. */
    void auditTick();
    RunStats collect(double seconds);

    /** @{ checkpoint/restore internals */
    /** Schedule the stop events recorded by stopAppAt() (fresh runs
     *  only; restored runs re-arm them from the snapshot). */
    void scheduleStopEvents();
    /** Header identity + provenance for a snapshot written now. */
    SnapshotMeta checkpointMeta() const;
    /** --audit spec string stamped into snapshot identity. */
    std::string auditSpecString() const;
    /** Behavior-relevant knobs beyond config/workload/seed/seconds;
     *  any mismatch between snapshot and run is a restore SimFatal. */
    std::string identityString() const;
    /** Load @p path into the freshly built platform (run() entry). */
    void restoreFrom(const std::string &path);
    /** The snapshot schema: every section, in order, for both
     *  saveCheckpoint() and restoreFrom(). */
    void stateIO(StateIO &io);
    /**
     * True when every component is at a checkpointable quiescent
     * point: no frames in any flow, no DMA/link transfers or CPU
     * tasks in flight, no queued chain acquisitions or software
     * submissions.  Only re-armable tracked events are pending then.
     */
    bool quiescent() const;
    /** Serialize the current (quiescent) state once and write it to
     *  each of @p paths. */
    void saveCheckpoint(const std::vector<std::string> &paths);
    /** Run the event loop, threading the pre-service hook when a
     *  checkpoint, the sampler or an interrupt flag needs it;
     *  otherwise the hook-free loop. */
    void runEventLoop(Tick limit);
    /** @} */

    /** Run-context pairs stamped into stats.json / crash bundles. */
    std::vector<std::pair<std::string, std::string>> runMeta() const;

    /** Flight recorder: dump a crash bundle to cfg.postmortemDir. */
    void writePostmortem(const std::string &reason,
                         const char *kind) noexcept;

    /** @{ no-progress guard */
    /** Total units of retired work (frames, sub-frames, jobs). */
    std::uint64_t retiredWork() const;
    std::size_t framesInFlight() const;
    /** Multi-line occupancy dump for the abort diagnostic. */
    std::string progressDump() const;
    void checkProgress();
    /** @} */

    SocConfig _cfg;
    Workload _wl;
    System _sys;
    /** Constructed before build() so components can cache pointers. */
    std::unique_ptr<LatencyCollector> _latency;
    std::unique_ptr<Tracer> _tracer;
    /** Hot-path profiler (cfg.prof); observational, digest-neutral. */
    std::unique_ptr<Profiler> _profiler;
    /** The one sampler (cfg.ts): metrics CSV and steady detector,
     *  read from the event loop's pre-service hook, so it is
     *  digest-neutral by construction. */
    std::unique_ptr<TimeSeries> _ts;
    StatRegistry _registry;
    Auditor _auditor;
    EnergyLedger _ledger;
    FrameAllocator _alloc;
    FrameTrace _trace;

    std::unique_ptr<FaultInjector> _faults;
    std::unique_ptr<MemoryController> _mem;
    std::unique_ptr<SystemAgent> _sa;
    std::unique_ptr<CpuCluster> _cpus;
    std::unique_ptr<SoftwareStack> _stack;
    std::unique_ptr<ChainManager> _chains;
    std::map<IpKind, std::unique_ptr<IpCore>> _ips;
    std::vector<std::unique_ptr<FlowRuntime>> _flows;
    std::uint64_t _lastRetired = 0;
    bool _ran = false;
    bool _interrupted = false;
    int _interruptSig = 0;

    /** @{ checkpoint/restore bookkeeping */
    /** stopAppAt() intent: part of the run identity, and scheduled
     *  (fresh runs) / re-armed (restores) at run() time so the event
     *  queue is empty when a snapshot is loaded. */
    struct StopIntent
    {
        std::string app;
        Tick when;
    };
    /** One tracked per-flow stop event. */
    struct StopEvent
    {
        std::size_t flow;
        EventId id = InvalidEventId;
        Tick when = 0;
    };
    /** A one-shot checkpoint not yet written (checkpointAt() or the
     *  steady seed); dropped once written. */
    struct OneShot
    {
        std::string path;
        Tick when;
    };
    std::vector<StopIntent> _stopIntents;
    std::vector<StopEvent> _stopEvents;
    std::vector<OneShot> _oneShots;
    EventId _auditEvent = InvalidEventId;
    EventId _progressEvent = InvalidEventId;
    std::uint64_t _checkpointsWritten = 0;
    std::string _lastCheckpointPath;
    Tick _lastCheckpointTick = 0;
    bool _restored = false;
    /** One-shot --checkpoint-on-steady plan already armed (or, on a
     *  restore, already written before the snapshot); serialized so a
     *  resumed run never re-writes the steady snapshot. */
    bool _steadyPlanArmed = false;
    /** @} */
};

} // namespace vip

#endif // VIP_CORE_SIMULATION_HH
