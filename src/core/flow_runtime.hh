/**
 * @file
 * FlowRuntime: drives one application flow through the platform under
 * a chosen system configuration.
 *
 * This is where the five evaluated systems differ:
 *
 *  - Baseline: per frame, the CPU runs app work + driver setup for
 *    every stage, every IP stages data through DRAM, and every stage
 *    completion interrupts the CPU.
 *  - FrameBurst: the CPU schedules N frames at once; stages still
 *    stage through DRAM but chain via hardware doorbells; one
 *    interrupt per burst.
 *  - IP-to-IP: the CPU sends one super-request per frame; data
 *    streams through lane buffers; the single-lane chain is acquired
 *    exclusively per frame.
 *  - IP-to-IP + FrameBurst: as above but the chain is held for a
 *    whole burst (the Fig 7 head-of-line blocking regime).
 *  - VIP: persistent per-flow lanes, header packet per burst, EDF
 *    hardware scheduling, no exclusive acquisition.
 */

#ifndef VIP_CORE_FLOW_RUNTIME_HH
#define VIP_CORE_FLOW_RUNTIME_HH

#include <memory>
#include <unordered_map>

#include "app/application.hh"
#include "app/trace.hh"
#include "app/user_input.hh"
#include "core/burst_policy.hh"
#include "core/chain_manager.hh"
#include "core/run_stats.hh"
#include "core/soc_config.hh"
#include "driver/software_stack.hh"
#include "mem/mem_types.hh"
#include "sim/system.hh"

namespace vip
{

/** Shared references a FlowRuntime needs from the platform. */
struct PlatformRefs
{
    System *sys = nullptr;
    const SocConfig *cfg = nullptr;
    SoftwareStack *stack = nullptr;
    ChainManager *chains = nullptr;
    SystemAgent *sa = nullptr;
    FrameAllocator *alloc = nullptr;
    std::function<IpCore *(IpKind)> ipFor;
};

/** Runs one flow instance for the whole simulation. */
class FlowRuntime : public Auditable
{
  public:
    FlowRuntime(PlatformRefs refs, FlowSpec spec, AppClass cls,
                FlowId id, Tick phase, FrameTrace *trace);

    /** Arm the first generation/burst event; call before System::run. */
    void start();

    /**
     * Stop the flow (the user closes the app): no further frames are
     * generated; once the in-flight ones drain, the chain is closed
     * and its lanes are freed for other applications.
     */
    void stop();

    /** True once stop() has been called. */
    bool stopped() const { return _stopping; }

    /** QoS outcome after the run. */
    FlowResult result(double seconds) const;

    const FlowSpec &spec() const { return _spec; }
    FlowId id() const { return _id; }

    /** True when VIP lane binding failed and the flow fell back to
     *  transactional chain acquisition. */
    bool vipFallback() const { return _vipFallback; }

    /** @{ overload-protection outcome */
    /** False when admission control refused the flow (Reject). */
    bool admitted() const { return !_rejected; }
    /** True when admission halved the target FPS (Degrade). */
    bool downRated() const { return _spec.fps != _nominalFps; }
    /** Whole frames dropped unstarted at the chain head. */
    std::uint64_t shedFrames() const { return _shed; }
    /** @} */

    /**
     * Fault recovery gave up on frame @p k somewhere in the chain:
     * its payload is lost, so it is judged a deadline miss (and a
     * drop) when it drains, however fast the passthrough is.
     */
    void noteDegraded(std::uint64_t k);

    /** @{ progress snapshot for the no-progress guard */
    std::uint64_t completedFrames() const { return _completed; }
    std::size_t framesInFlight() const { return _frames.size(); }
    /** @} */

    /** @{ QoS accounting (stats registry) */
    std::uint64_t generatedFrames() const { return _generated; }
    std::uint64_t violations() const { return _violations; }
    std::uint64_t drops() const { return _drops; }
    /** @} */

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

    /**
     * TEST ONLY: skew the generated-frame counter without generating
     * a frame, deliberately breaking flow.conservation so tests can
     * prove a strict audit catches and localizes an accounting bug.
     */
    void corruptAccountingForTest() { ++_generated; }

    /** True when no frame is in flight (checkpointing). */
    bool quiescent() const { return _frames.empty(); }

    /**
     * Re-create this flow's chain during checkpoint restore,
     * mirroring the create() call start() issued.  Driven by
     * ChainManager::io on load, in saved chain order, so the ids come
     * out identical; returns the new ChainId.
     */
    ChainId recreateChain();

    /** Checkpoint/restore (driven by the Simulation). */
    void io(StateIO &io);

  private:
    struct FrameCtx
    {
        std::vector<std::uint64_t> edges;
        std::vector<Addr> addrs;
        Tick gen = 0;       ///< nominal generation time
        Tick deadline = 0;
        Tick started = 0;   ///< first stage began processing
        bool degraded = false; ///< payload lost to a fault
        std::shared_ptr<std::uint32_t> burstLeft;
    };

    /** @{ shared helpers */
    Tick frameTick(std::uint64_t k) const;
    FrameCtx &makeCtx(std::uint64_t k);
    void applyAdmission();
    bool shouldShed() const;
    void shedFrame(std::uint64_t k);
    void frameDone(std::uint64_t k);
    void recordStart(std::uint64_t k);
    void maybeTeardown();
    Tick genSpan() const;
    Tick inputHint() const;
    void buildBurstPolicy();
    bool isInteractive() const;
    std::uint64_t appWork();
    /** @} */

    /** Per-frame action of a pipelined burst (frame id, is-last). */
    using BurstAction = std::function<void(std::uint64_t, bool)>;

    /**
     * Run the burst's CPU preparation frame by frame, invoking
     * @p action for each frame as soon as its software work is done.
     */
    void burstPipeline(std::uint64_t k0, std::uint32_t n,
                       std::uint64_t k, BurstAction action);

    /** @{ job-mode paths (Baseline / FrameBurst) */
    void genFrameBaseline(std::uint64_t k);
    void genBurstJobs(std::uint64_t k0);
    void submitStage(std::uint64_t k, std::size_t i, bool burst_mode);
    /** @} */

    /** @{ stream-mode paths (IP-to-IP / +FB / VIP) */
    void genFrameChained(std::uint64_t k);
    void genBurstChained(std::uint64_t k0);
    void genBurstVip(std::uint64_t k0);
    void feedNow(std::uint64_t k, bool txn_end);
    void onChainExit(std::uint64_t k);
    /** @} */

    /** @{ user input (game flows) */
    void scheduleNextInput();
    /** The armed input event fired: a touch of _inputDur. */
    void onInputEvent();
    /** @} */

    /** @{ frame-generation cadence (tracked for checkpointing) */
    /** Schedule generation of frame/burst @p k at its nominal tick. */
    void armGen(std::uint64_t k);
    /** The armed event fired for _genNextK: dispatch on the mode
     *  traits. */
    void dispatchGen();
    /** @} */

    PlatformRefs _p;
    FlowSpec _spec;
    AppClass _cls;
    FlowId _id;
    Tick _phase;
    ConfigTraits _traits{};
    FrameTrace *_trace = nullptr;

    std::vector<IpCore *> _ips;
    std::size_t _numStages = 0;

    ChainId _chain = 0;
    bool _chainCreated = false;
    bool _vipFallback = false;
    bool _stopping = false;
    bool _tornDown = false;

    /** @{ overload protection */
    double _nominalFps = 0.0;  ///< requested rate before down-rating
    bool _rejected = false;    ///< admission refused the flow
    bool _admitted = false;    ///< demand recorded in the ledger
    std::uint32_t _consecLate = 0; ///< frames late in a row
    /** @} */

    /**
     * @{ observability (cached tracer string ids; excluded from
     * stateDigest so tracing never perturbs digest streams)
     */
    std::uint32_t _obsTrack = 0;   ///< "flow.<name>" track
    std::uint32_t _obsFrameNm = 0; ///< async lifecycle name
    /** @} */

    std::unique_ptr<BurstPolicy> _burst;
    std::unique_ptr<TouchModel> _touch;
    Tick _nextInput = MaxTick;
    Tick _inputBusyUntil = 0;
    /** @{ pending-event bookkeeping (checkpointing) */
    EventId _genEvent = InvalidEventId;   ///< next generation event
    std::uint64_t _genNextK = 0;          ///< frame/burst it fires for
    EventId _inputEvent = InvalidEventId; ///< next user-input event
    Tick _inputDur = 0;                   ///< its touch duration
    /** @} */
    std::shared_ptr<std::uint32_t> _activeBurstLeft;
    std::uint32_t _activeBurstSize = 0;
    std::uint64_t _activeBurstFirst = 0;

    std::unordered_map<std::uint64_t, FrameCtx> _frames;

    /** @{ QoS accounting */
    std::uint64_t _generated = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _violations = 0;
    std::uint64_t _drops = 0;
    std::uint64_t _shed = 0;      ///< dropped whole at the chain head
    double _flowTimeSumMs = 0.0;
    double _transitSumMs = 0.0;
    /** @} */
};

} // namespace vip

#endif // VIP_CORE_FLOW_RUNTIME_HH
