/**
 * @file
 * Transaction-level LPDDR3 memory controller.
 *
 * Requests (sub-frame sized, ~1 KB) are interleaved across channels by
 * address.  Each channel services its queue with an FR-FCFS policy
 * over a per-bank open-row state machine: a row hit pays CAS plus the
 * data burst; a miss additionally pays precharge + activate.
 *
 * The controller also hosts the bandwidth monitor that produces the
 * Fig 3c/3d data (average bandwidth and time-at-bandwidth histogram).
 */

#ifndef VIP_MEM_MEMORY_CONTROLLER_HH
#define VIP_MEM_MEMORY_CONTROLLER_HH

#include <vector>

#include "fault/fault_injector.hh"
#include "mem/dram_config.hh"
#include "mem/mem_types.hh"
#include "power/energy_account.hh"
#include "sim/sim_object.hh"
#include "stats/stats.hh"

namespace vip
{

/** The platform memory controller (all channels). */
class MemoryController : public SimObject
{
  public:
    /** Requester ids the traffic ledger holds (IpKind values and the
     *  CPU sit far below it). */
    static constexpr std::uint32_t kMaxRequesters = 256;

    /** The channel count, interleave granularity, row size and banks
     *  per channel must be powers of two: addresses decode by shifts. */
    MemoryController(System &system, std::string name,
                     const DramConfig &cfg, EnergyLedger &ledger,
                     FaultInjector *faults = nullptr);

    /**
     * Issue a transaction.  Completion is signalled through
     * req.onComplete.  The queue is unbounded; requesters implement
     * back-pressure with their own outstanding-request credits, but
     * queueFull() lets them honour the modelled queue depth.
     */
    void access(MemRequest req);

    /** True when the channel serving @p addr has a full queue. */
    bool queueFull(Addr addr) const;

    /** Number of queued + in-flight bursts on all channels. */
    std::size_t inFlight() const { return _inFlight; }

    const DramConfig &config() const { return _cfg; }

    /** @{ Aggregate traffic statistics. */
    std::uint64_t bytesRead() const { return _bytesRead; }
    std::uint64_t bytesWritten() const { return _bytesWritten; }
    std::uint64_t rowHits() const { return _rowHits; }
    std::uint64_t rowMisses() const { return _rowMisses; }
    /** ECC events observed on serviced bursts (0 without faults). */
    std::uint64_t eccCorrected() const { return _eccCorrected; }
    std::uint64_t eccUncorrected() const { return _eccUncorrected; }
    /** Bytes moved on behalf of @p requester (req.requesterId); 0
     *  for an id never seen. */
    std::uint64_t
    bytesForRequester(std::uint32_t requester) const
    {
        return requester < kMaxRequesters ? _byRequester[requester] : 0;
    }
    /** @{ Burst ledger: accepted == completed + inFlight(). */
    std::uint64_t burstsAccepted() const { return _burstsAccepted; }
    std::uint64_t burstsCompleted() const { return _burstsCompleted; }
    /** @} */
    /** @} */

    /** Average observed bandwidth over the whole run, GB/s. */
    double averageBandwidthGBps() const;

    /**
     * Fraction of monitor windows whose bandwidth exceeded
     * @p fraction of peak (Fig 3d's "time near peak").
     */
    double fractionOfTimeAbove(double fraction) const;

    /** The raw time-at-bandwidth histogram (% of peak, 10 bins). */
    const stats::Histogram &bwHistogram() const { return _bwHist; }

    /** Mean service latency (queue + device) in ns. */
    double avgLatencyNs() const { return _latency.mean(); }

    /** LPDDR low-power state (power-down / self-refresh). */
    enum class LpState
    {
        Active,
        PowerDown,
        SelfRefresh,
    };

    LpState lpState() const { return _lpState; }
    Tick powerDownTicks() const { return _powerDownTicks; }
    Tick selfRefreshTicks() const { return _selfRefreshTicks; }
    std::uint64_t lpEntries() const { return _lpEntries; }

    void startup() override;
    void finalize() override;
    void registerStats(StatRegistry &registry) override;

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

    /**
     * True when no burst is queued, in service, or (ideal mode) in
     * flight as a pending completion — the only pending events are the
     * re-armable bandwidth sampler and low-power timer.
     */
    bool
    quiescent() const
    {
        return inFlight() == 0 && _idealInFlight == 0;
    }

    /** Checkpoint/restore. */
    void io(StateIO &io);

  private:
    /** One queued burst (a stripe of a transaction), decoded once at
     *  enqueue.  Trivially copyable: the queues move plain bytes. */
    struct Pending
    {
        std::uint32_t bytes;
        std::uint32_t requesterId;
        std::uint32_t txn; ///< index into _txns
        std::uint32_t bank;
        std::uint64_t row;
        Tick enqueued;
    };

    /** A transaction's completion, fired when its last stripe is
     *  serviced.  Slot-pooled in _txns; a free slot has left == 0. */
    struct Txn
    {
        EventCallback onComplete;
        std::uint32_t left = 0; ///< stripes not yet serviced
    };

    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
    };

    struct Channel
    {
        std::vector<Pending> queue; ///< arrival order
        std::vector<Bank> banks;
        bool busy = false;

        /** @{ per-channel accounting (stats registry, dram.ch<i>.*) */
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t bursts = 0; ///< completed
        std::uint64_t bytes = 0;  ///< serviced payload bytes
        /** @} */
    };

    /** @{ address decode: stripes interleave across channels, then
     *  banks; a row spans every channel's and bank's stripes */
    std::uint32_t
    channelOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> _stripeShift) &
               (_cfg.channels - 1);
    }
    std::uint32_t
    bankOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> _bankShift) & _bankMask;
    }
    std::uint64_t rowOf(Addr addr) const { return addr >> _rowShift; }
    /** @} */

    /** Start servicing the next request on @p ch if idle. */
    void trySchedule(std::uint32_t ch);

    /** Count one serviced stripe of transaction @p t; the last one
     *  frees the slot and fires the completion. */
    void finishStripe(std::uint32_t t);

    /** FR-FCFS: index of the first row-hit request, else 0. */
    static std::size_t pickNext(const Channel &c);

    void sampleBandwidth();

    /** @{ low-power state machine */
    void enterLpState(LpState s);
    void armLpTimer();
    /** Body of the low-power demotion timer (named for restore). */
    void lpTimerFired();
    /** Wake for an access; returns the exit penalty to charge. */
    Tick wakeForAccess();
    void onAllIdle();
    /** @} */

    DramConfig _cfg;
    /** @{ decode mask and shifts (log2 of the geometry) */
    std::uint32_t _bankMask; ///< banks per channel - 1
    unsigned _stripeShift;
    unsigned _bankShift;
    unsigned _rowShift;
    /** @} */
    /** Burst time of a full interleaveBytes stripe. */
    Tick _fullStripeBurst;
    std::vector<Channel> _channels;
    EnergyAccount &_energy;
    FaultInjector *_faults;

    // Bandwidth monitor state
    std::uint64_t _windowBytes = 0;
    Tick _windowStart = 0;
    EventId _bwEvent = InvalidEventId;

    /** Ideal-mode completions scheduled but not yet delivered. */
    std::uint64_t _idealInFlight = 0;

    /** Queued + busy bursts over all channels (inFlight()). */
    std::size_t _inFlight = 0;
    /** Channels with a burst in service. */
    std::uint32_t _busyCount = 0;

    /** Completion pool; empty of live slots at every quiescent point,
     *  so it is never checkpointed. */
    std::vector<Txn> _txns;
    std::vector<std::uint32_t> _txnFree; ///< free slots, LIFO

    // Aggregate counters
    std::uint64_t _bytesRead = 0;
    std::uint64_t _bytesWritten = 0;
    std::uint64_t _rowHits = 0;
    std::uint64_t _rowMisses = 0;
    std::uint64_t _eccCorrected = 0;
    std::uint64_t _eccUncorrected = 0;
    /** Channel-queue bursts (non-ideal mode only). */
    std::uint64_t _burstsAccepted = 0;
    std::uint64_t _burstsCompleted = 0;

    /** Per-requester traffic attribution, by id (kMaxRequesters). */
    std::vector<std::uint64_t> _byRequester;

    // Low-power state machine
    LpState _lpState = LpState::Active;
    Tick _lpSince = 0;
    Tick _powerDownTicks = 0;
    Tick _selfRefreshTicks = 0;
    std::uint64_t _lpEntries = 0;
    EventId _lpTimer = InvalidEventId;
    /** Exit penalty pending application to the next scheduled burst. */
    Tick _wakePenalty = 0;

    // ---- observability (tracer string ids; never digested) ----
    std::vector<std::uint32_t> _obsTrkCh; ///< per-channel burst tracks
    std::uint32_t _obsTrkMem = 0;         ///< controller-level track
    std::uint32_t _obsNmBurst = 0;
    std::uint32_t _obsNmBw = 0;

    stats::Accumulator _latency;
    /** Time-at-bandwidth histogram (% of peak). */
    stats::Histogram _bwHist{0.0, 100.0, 10};
    stats::TimeWeighted _busyChannels;
};

} // namespace vip

#endif // VIP_MEM_MEMORY_CONTROLLER_HH
