/**
 * @file
 * The IP core model — an accelerator with two operating interfaces.
 *
 * **Job mode** (Baseline / FrameBurst): the driver enqueues StageJobs
 * into a depth-limited hardware queue.  The engine processes one job
 * at a time as a pipeline of DMA-chunk work units: prefetch reads from
 * DRAM (bounded outstanding), compute, write back to DRAM, then fire
 * the job's completion continuation (CPU interrupt or hardware
 * doorbell).
 *
 * **Stream mode** (IP-to-IP / VIP): the IP exposes lane buffers — an
 * input and an output buffer per lane, as in Fig 13.  Each lane is
 * bound to one flow and connected to a downstream IP's lane.  Frames
 * are *announced* per stage (the header-packet context: input bytes,
 * output bytes, deadline, transaction boundary) and then their data
 * streams through as anonymous in-order bytes.  The engine consumes
 * sub-frame-sized work units: a unit needs its share of input bytes
 * available and space in the lane's output buffer; an independent
 * per-lane pusher forwards output chunks across the System Agent into
 * the downstream lane under credit-based flow control.  The hardware
 * scheduler picks the next runnable lane (FIFO / RR / EDF); a
 * non-virtualized IP has a single context and may only switch lanes
 * at frame or transaction (burst) boundaries — the head-of-line
 * blocking regime of Fig 7 — while a virtualized IP switches at
 * sub-frame granularity with a small context-switch penalty.
 *
 * The same object integrates its three-state power model (active /
 * stalled / idle) and the lane-buffer access energy through the
 * CACTI-like SramModel.
 *
 * **Fault tolerance**: when a FaultInjector is attached, every compute
 * unit (both modes) may hang the engine or produce a corrupted
 * sub-frame.  A per-IP watchdog detects the silence, resets the
 * engine and retries the unit with exponential backoff; corrupted
 * units are recomputed.  When the retry budget is exhausted the
 * current frame's payload is dropped: the rest of the frame drains as
 * zero-cost passthrough so the chain resynchronizes at the next frame
 * boundary, and the damage surfaces downstream as a late/degraded
 * frame in the QoS stats.
 */

#ifndef VIP_IP_IP_CORE_HH
#define VIP_IP_IP_CORE_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "ip/ip_types.hh"
#include "ip/work.hh"
#include "power/energy_account.hh"
#include "power/sram_model.hh"
#include "sa/system_agent.hh"
#include "sim/clocked.hh"
#include "stats/stats.hh"

namespace vip
{

class Tracer;

/** One accelerator of the SoC. */
class IpCore : public ClockedObject
{
  public:
    /** Callback for sink lanes: (flowId, frameId) fully consumed. */
    using FrameExitFn = std::function<void(FlowId, std::uint64_t)>;
    /** Callback when a fed frame's first chunk arrives. */
    using FrameStartFn = std::function<void(FlowId, std::uint64_t)>;

    IpCore(System &system, std::string name, const IpParams &params,
           SystemAgent &sa, EnergyLedger &ledger,
           FaultInjector *faults = nullptr);

    const IpParams &params() const { return _p; }
    IpKind kind() const { return _p.kind; }

    /** @{ -------------------- Job mode -------------------- */

    /**
     * Enqueue a job.
     * @return false when the hardware queue is full (the Nexus-7
     *         depth-7 limit); the driver must retry later.
     */
    bool submitJob(StageJob job);

    /** Queued (not yet started) jobs. */
    std::size_t queueLength() const { return _jobs.size(); }

    bool queueFull() const { return _jobs.size() >= _p.hwQueueDepth; }

    /**
     * Register a callback invoked whenever a job completes; the driver
     * uses it to retry blocked submissions.
     */
    void setQueueDrainCb(std::function<void()> cb)
    {
        _queueDrainCb = std::move(cb);
    }

    /** @} */

    /** @{ ------------------- Stream mode ------------------ */

    /**
     * Bind a free lane to @p flow.
     * @return lane index, or -1 when every lane is taken.
     */
    int bindLane(FlowId flow);

    /** Release a lane (chain teardown); the lane must be drained. */
    void unbindLane(int lane);

    /** Number of lanes currently bound. */
    std::uint32_t boundLanes() const;

    std::uint32_t numLanes() const
    {
        return static_cast<std::uint32_t>(_lanes.size());
    }

    /** Route a lane's output into @p next's lane @p next_lane. */
    void connectLane(int lane, IpCore *next, int next_lane);

    /** Mark a lane as terminal: data is consumed here (sink IP). */
    void makeLaneSink(int lane, FrameExitFn on_exit);

    /** Observe the first fed chunk of every frame on @p lane. */
    void setLaneFrameStartCb(int lane, FrameStartFn cb);

    /**
     * Announce a frame's per-stage context (distributed via the
     * header packet): how many bytes enter this stage, how many it
     * produces, the QoS deadline (EDF key) and whether the frame
     * closes its transaction (single frame, or last frame of a
     * burst — the boundary at which a single-context IP may switch).
     * Frames on a lane are processed in announcement order.
     */
    void announceFrame(int lane, std::uint64_t frame_id,
                       std::uint64_t in_bytes, std::uint64_t out_bytes,
                       Tick deadline, bool txn_end);

    /**
     * Feed a frame's input data into a head-of-chain lane.  The frame
     * must have been announced first.
     * @param generate  true for sensor sources (camera/mic).
     * @param gen_span  sensor readout span for generated frames.
     */
    void feedFrame(int lane, std::uint64_t frame_id,
                   std::uint64_t bytes, Addr addr, bool generate,
                   Tick gen_span = 0);

    /** True when @p bytes can be accepted into @p lane's input now. */
    bool laneHasSpace(int lane, std::uint32_t bytes) const;

    /** Reserve input space ahead of an SA transfer (producer side). */
    void reserveLaneSpace(int lane, std::uint32_t bytes);

    /** Deliver data into a lane (called after the SA transfer). */
    void deliverBytes(int lane, std::uint32_t bytes);

    /**
     * Register the upstream's retry callback, invoked (via an SA
     * credit signal) when input space frees up in @p lane.
     */
    void setCreditWaiter(int lane, std::function<void()> cb);

    /** @{ lane-credit introspection (tests, diagnostics) */
    /** Total reserved input bytes (buffered + in-flight + in-use). */
    std::uint64_t laneOccupancy(int lane) const;
    /** Input bytes buffered and ready to consume. */
    std::uint64_t laneInAvail(int lane) const;
    /** @} */

    /** @} */

    /** @{ ------------------- Accounting ------------------- */

    Tick activeTicks() const { return _activeTicks; }
    Tick stallTicks() const { return _stallTicks; }

    /**
     * Utilization while busy: active / (active + stalled), the Fig 3b
     * metric (1.0 under ideal memory).
     */
    double utilization() const;

    /** Busy fraction of total time: (active + stall) / elapsed. */
    double dutyCycle() const;

    std::uint64_t jobsCompleted() const { return _jobsCompleted; }
    std::uint64_t subframesProcessed() const { return _subframes; }
    std::uint64_t framesExited() const { return _framesExited; }
    std::uint64_t contextSwitches() const { return _contextSwitches; }
    std::uint64_t bytesProcessed() const { return _bytesProcessed; }
    /** Bytes detoured through DRAM by the overflow-to-memory path. */
    std::uint64_t bytesSpilled() const { return _bytesSpilled; }
    /** Reservations that overran a lane's capacity (must stay 0). */
    std::uint64_t laneOverflows() const { return _laneOverflows; }
    /** @{ Credit ledger: reserved == returned + Σ lane occupancy. */
    std::uint64_t creditsReserved() const { return _creditsReserved; }
    std::uint64_t creditsReturned() const { return _creditsReturned; }
    /** @} */

    /** @{ Fault recovery counters (0 without a FaultInjector). */
    std::uint64_t watchdogResets() const { return _watchdogResets; }
    std::uint64_t unitRetries() const { return _unitRetries; }
    std::uint64_t framesDegraded() const { return _framesDegraded; }

    /**
     * Register a callback fired when a unit's retry budget runs out
     * and the frame's payload is dropped; the platform routes it to
     * the owning flow so the frame counts as a QoS miss.
     */
    using DegradeNotifier = std::function<void(FlowId, std::uint64_t)>;
    void setDegradeNotifier(DegradeNotifier cb)
    {
        _onDegrade = std::move(cb);
    }
    /** @} */

    /**
     * One-line occupancy snapshot (engine state, lane depths and
     * buffer fill) for the no-progress guard's diagnostic dump.
     */
    std::string debugState() const;

    /** @} */

    void finalize() override;
    void registerStats(StatRegistry &registry) override;

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

    /**
     * True when the engine holds no job or unit in flight and every
     * lane is drained (no frames, feeds, buffered bytes, outstanding
     * DMA, spills or armed credit waiter) — the IP owns no pending
     * events, so a checkpoint captures it with plain counters plus
     * the lane-binding topology.
     */
    bool quiescent() const;

    /** Checkpoint/restore. */
    void io(StateIO &io);

  private:
    /** Occupancy/power accounting state. */
    enum class EngineState
    {
        Idle,
        Active,
        Stalled,
        /** Work is input-ready but waits on downstream lane credits. */
        Backpressured,
    };

    /** Announced per-stage frame context (header-packet contents). */
    struct StreamFrame
    {
        std::uint64_t frameId = 0;
        std::uint64_t inBytes = 0;
        std::uint64_t outBytes = 0;
        Tick deadline = MaxTick;
        bool txnEnd = true;
        std::uint64_t units = 1;
        std::uint64_t unitsDone = 0;
        /**
         * @{ unit `unitsDone`'s input bytes, output bytes and nominal
         * compute time: filled by fillUnitGeometry() when the frame
         * is announced and whenever unitsDone advances, so the engine
         * derives each unit's geometry once (audited as
         * `ip.unit_geometry`).
         */
        std::uint64_t curIn = 0;
        std::uint64_t curOut = 0;
        Tick curTime = 0;
        /** @} */
        /**
         * Retry budget exhausted on some unit: the payload is lost
         * and the remaining units drain as zero-cost passthrough.
         */
        bool faulted = false;

        /**
         * @{ observability only (latency decomposition); written by
         * the tracing/latency hooks, excluded from stateDigest.
         */
        Tick obsAnnounce = 0;     ///< announceFrame() time
        Tick obsFirstStart = 0;   ///< first unit entered compute
        Tick obsComputeAccum = 0; ///< nominal compute time consumed
        /** @} */

        /** Input bytes unit @p u consumes (fractional distribution);
         *  the reference formula behind curIn. */
        std::uint64_t
        unitIn(std::uint64_t u) const
        {
            return inBytes * (u + 1) / units - inBytes * u / units;
        }

        /** Output bytes unit @p u produces. */
        std::uint64_t
        unitOut(std::uint64_t u) const
        {
            return outBytes * (u + 1) / units - outBytes * u / units;
        }
    };

    /**
     * A head-of-chain input feed (DMA or sensor).  It is cut into
     * subframeBytes chunks (the last one short); chunks that complete
     * out of order wait in the lane's arrival ring (_feedArrived)
     * until every chunk before them has arrived.
     */
    struct Feed
    {
        std::uint64_t frameId = 0;
        Addr addr = 0;
        std::uint64_t total = 0;      ///< frame bytes at this stage
        std::uint64_t issued = 0;     ///< bytes issued to DMA/sensor
        std::uint64_t delivered = 0;  ///< bytes delivered, in order
        bool generate = false;
        Tick genInterval = 0;   ///< sensor pacing between chunks
        bool genArmed = false;  ///< a generation event is scheduled
    };

    /**
     * FIFO of output chunk sizes that keeps its storage: a pop
     * advances the head, and a push that finds the buffer full first
     * drops the consumed prefix, so a lane stops allocating once its
     * queue has reached its deepest backlog.
     */
    class ChunkFifo
    {
      public:
        bool empty() const { return _head == _buf.size(); }
        std::uint32_t front() const { return _buf[_head]; }

        void
        push_back(std::uint32_t bytes)
        {
            if (_head > 0 && _buf.size() == _buf.capacity()) {
                _buf.erase(_buf.begin(), begin());
                _head = 0;
            }
            _buf.push_back(bytes);
        }

        void
        pop_front()
        {
            if (++_head == _buf.size()) {
                _buf.clear();
                _head = 0;
            }
        }

        std::vector<std::uint32_t>::const_iterator
        begin() const
        {
            return _buf.begin() + static_cast<std::ptrdiff_t>(_head);
        }
        std::vector<std::uint32_t>::const_iterator
        end() const
        {
            return _buf.end();
        }

      private:
        std::vector<std::uint32_t> _buf;
        std::size_t _head = 0;
    };

    struct Lane
    {
        bool bound = false;
        FlowId flow = 0;

        /** @{ input side */
        std::uint64_t occupancy = 0; ///< avail + reserved in-flight
        std::uint64_t inAvail = 0;   ///< bytes ready to consume
        Tick headArrival = MaxTick;  ///< FIFO scheduling key
        std::deque<Feed> feeds;
        std::uint32_t outstandingDma = 0;
        std::function<void()> creditWaiter;
        /** @} */

        /** @{ frame contexts, in order */
        std::deque<StreamFrame> frames;
        /** @} */

        /** @{ output side */
        std::uint64_t outAccum = 0;       ///< partial chunk
        ChunkFifo outQueue;
        std::uint64_t outQueueBytes = 0;
        /** @} */

        /** @{ memory-overflow path (IpParams::overflowToMemory) */
        struct Spill
        {
            Addr addr = 0;
            std::uint32_t bytes = 0;
            bool writeDone = false;
        };
        std::deque<Spill> spillQueue;
        std::uint64_t spillBytes = 0;   ///< queued + in-flight
        bool refillInFlight = false;
        /** @} */

        IpCore *next = nullptr;
        int nextLane = -1;
        bool sink = false;
        FrameExitFn onExit;
        FrameStartFn onFrameStart;

        /** Work exists somewhere (for teardown checks).  Occupancy
         *  covers reserved in-flight deliveries and input held by the
         *  unit in compute, so an unbind cannot race either. */
        bool
        active() const
        {
            return !frames.empty() || !feeds.empty() || inAvail > 0 ||
                   occupancy > 0 || outQueueBytes > 0 || outAccum > 0 ||
                   spillBytes > 0;
        }

        /**
         * Data is buffered and actionable: this burns stall power.
         * Merely waiting for upstream data (empty input) or holding a
         * partial chunk in the output accumulation register lets the
         * engine clock-gate (idle power).
         */
        bool
        hasBufferedWork() const
        {
            return inAvail > 0 || outQueueBytes > 0;
        }
    };

    /** @{ job-mode engine */
    void tryStartJob();
    void issueJobReads();
    void tryComputeJobUnit();
    void onJobUnitComputed();
    void checkJobDone();
    /** @} */

    /** @{ stream-mode engine */
    void pumpFeeds(int lane);
    /** Mark the feed chunk at byte @p offset of the lane's front
     *  feed as arrived, then deliver what is now in order. */
    void onFeedChunkReady(int lane, std::uint64_t offset);
    void deliverInOrder(int lane);
    /** The arrival-ring word and bit of feed chunk @p chunk_idx. */
    std::uint64_t &feedArrivedWord(int lane, std::uint64_t chunk_idx);
    /** Load unit f.unitsDone's sizes and compute time into @p f. */
    void fillUnitGeometry(StreamFrame &f) const;
    bool laneRunnable(const Lane &l) const;
    int pickLane() const;
    /**
     * Start the next stream unit if the engine is free and a lane is
     * runnable, then update the engine state (on every path).
     */
    void kickStream();
    void startStreamUnit(int lane);
    void onUnitComputed(int lane);
    void pushOutput(int lane);
    void spillChunk(int lane, std::uint32_t bytes);
    void pumpSpills(int lane);
    /**
     * Consume buffered input for the unit entering compute.  The
     * bytes stay *reserved* (occupancy) until the unit completes or
     * gives up, so a watchdog retry recomputes from input whose
     * buffer space upstream cannot have overwritten.
     */
    void consumeInput(int lane, std::uint64_t bytes);
    /**
     * Return a finished unit's input-buffer credits: drop the
     * reservation, wake the upstream credit waiter (via the SA's
     * latency-modeled signal path) and re-pump head-of-chain feeds.
     */
    void returnLaneCredits(int lane, std::uint64_t bytes);
    /** @} */

    /** @{ fault injection + watchdog recovery (both modes) */
    /**
     * Begin the compute of one unit: the single place every work unit
     * passes through, where hangs are injected and the watchdog is
     * armed.  @p degraded units (frames past their retry budget)
     * complete in zero time with no injection.
     */
    void startUnit(bool stream, int lane, Tick time, bool degraded);
    void armComputeAttempt(Tick extra_delay);
    void armWatchdog(Tick extra_delay);
    void cancelWatchdog();
    void onComputeAttemptDone();
    void onWatchdogTimeout();
    void retryUnit(bool from_reset);
    void giveUpUnit();
    void finishUnit();
    /** @} */

    void updateEngineState();
    void accumulateState(Tick now);
    bool anyWorkPending() const;
    bool outputBlocked(const Lane &l) const;
    bool backpressured() const;

    Tick computeTime(std::uint64_t in_bytes,
                     std::uint64_t out_bytes) const;

    IpParams _p;
    SystemAgent &_sa;
    EnergyAccount &_energy;
    EnergyAccount &_bufferEnergy;
    /** One lane buffer's SRAM estimate (per-access energy). */
    SramModel::Estimate _laneSram{};
    FaultInjector *_faults;

    // ---- unit-in-flight fault/watchdog state (either mode) ----
    bool _unitStream = false;     ///< stream vs job mode unit
    int _unitLane = -1;           ///< lane of a stream unit
    Tick _unitTime = 0;           ///< nominal compute time
    Tick _unitStart = 0;          ///< first attempt began
    std::uint32_t _unitAttempts = 0; ///< retries so far
    bool _unitDegraded = false;   ///< passthrough drain, no injection
    std::uint64_t _unitInBytes = 0; ///< input credits held by the unit
    EventId _computeEvent = InvalidEventId;
    EventId _watchdogEvent = InvalidEventId;
    bool _jobFaulted = false;     ///< current job past its budget
    DegradeNotifier _onDegrade;

    // ---- job mode state ----
    std::deque<StageJob> _jobs;
    bool _jobActive = false;
    StageJob _job;
    std::uint64_t _unitsTotal = 0;
    std::uint64_t _unitsIssued = 0;   ///< reads issued
    std::uint64_t _unitsReady = 0;    ///< reads completed, compute pending
    std::uint64_t _unitsComputed = 0;
    std::uint64_t _writesDone = 0;
    std::uint32_t _readsOutstanding = 0;
    Tick _jobStartTick = 0;
    bool _computing = false;          ///< engine busy (either mode)
    std::function<void()> _queueDrainCb;

    // ---- stream mode state ----
    std::vector<Lane> _lanes;
    /**
     * Feed-chunk arrival bits, a ring of _feedRingWords words per
     * lane indexed by chunk number modulo its bit count.  Every
     * chunk past Feed::delivered holds lane occupancy, so at most
     * ceil(laneBytes / subframeBytes) of them are pending and the
     * ring (sized for that) never aliases.
     */
    std::vector<std::uint64_t> _feedArrived;
    std::uint64_t _feedRingWords = 1;
    int _currentLane = -1;
    /**
     * Lane the single context is committed to until the boundary of
     * its current frame/transaction (-1 when free to switch).
     * Always -1 for Subframe granularity.
     */
    int _stickyLane = -1;

    // ---- accounting ----
    EngineState _engineState = EngineState::Idle;
    Tick _stateSince = 0;
    Tick _activeTicks = 0;
    Tick _stallTicks = 0;
    /**
     * Time spent backpressured: input ready but no downstream credit.
     * The engine clock-gates (idle power); excluded from both terms
     * of utilization() so memory stalls stay distinguishable.
     */
    Tick _bpStallTicks = 0;
    std::uint64_t _jobsCompleted = 0;
    std::uint64_t _subframes = 0;
    std::uint64_t _framesExited = 0;
    std::uint64_t _contextSwitches = 0;
    std::uint64_t _bytesProcessed = 0;
    std::uint64_t _bytesSpilled = 0;
    std::uint64_t _laneOverflows = 0;
    std::uint64_t _creditStalls = 0;
    std::uint64_t _creditsReserved = 0;
    std::uint64_t _creditsReturned = 0;
    std::uint64_t _watchdogResets = 0;
    std::uint64_t _unitRetries = 0;
    std::uint64_t _framesDegraded = 0;
    Addr _spillNext = 0; ///< bump pointer into the spill region

    // ---- observability (tracer string ids + latency accumulation;
    //      never digested, never affects behaviour) ----
    std::uint32_t _obsTrkEngine = 0; ///< "<name>.engine" state track
    std::uint32_t _obsTrkExec = 0;   ///< "<name>.exec" unit track
    std::uint32_t _obsNmActive = 0;
    std::uint32_t _obsNmStalled = 0;
    std::uint32_t _obsNmBp = 0;
    std::uint32_t _obsNmUnit = 0;
    std::uint32_t _obsNmStageDone = 0;
    std::uint32_t _obsNmStageAnnounce = 0;
    std::uint32_t _obsNmGrant = 0;
    std::uint32_t _obsNmCtxSwitch = 0;
    Tick _obsJobComputeAccum = 0; ///< nominal compute of current job

    /** Lazily intern this IP's track/name ids (tracer non-null). */
    void obsInternIds(Tracer *tr);

    /** Flow/frame of the unit in flight (stream or job), or -1/-1. */
    std::pair<std::int32_t, std::int64_t> obsUnitIdentity() const;

    /** Emit a fault-category instant on this engine's track. */
    void obsFaultInstant(const char *what);

    /** Job-mode job latency (ms): `ip.<kind>.job_latency_ms.*`. */
    stats::Accumulator _jobLatencyMs;
};

} // namespace vip

#endif // VIP_IP_IP_CORE_HH
