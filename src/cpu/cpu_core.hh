/**
 * @file
 * Activity-based in-order CPU core model.
 *
 * The paper's CPU involvement is software-stack work: driver setup per
 * frame, interrupt service routines, app-level frame preparation.  We
 * model the core at task granularity: a task is a number of
 * instructions executed at a fixed IPC.  The core has a three-state
 * power model (active / idle / deep-sleep) with a timeout-driven sleep
 * governor and a wake latency — which is exactly the mechanism frame
 * bursts exploit to save energy (Fig 16).
 */

#ifndef VIP_CPU_CPU_CORE_HH
#define VIP_CPU_CPU_CORE_HH

#include <deque>
#include <functional>
#include <vector>

#include "power/energy_account.hh"
#include "power/power_params.hh"
#include "sim/clocked.hh"

namespace vip
{

class Tracer;

/** DVFS governor selection. */
enum class CpuGovernor : std::uint8_t
{
    None,     ///< fixed frequency (the paper's platform)
    OnDemand, ///< Linux ondemand-style: scale with utilization
};

/** CPU core configuration (Table 3: ARM, in-order, 1-issue). */
struct CpuConfig
{
    double freqHz = 1.3e9;
    double ipc = 1.0;
    /** Idle time after which the core enters deep sleep. */
    Tick sleepThreshold = fromUs(300);
    /** Latency to wake from deep sleep. */
    Tick wakeLatency = fromUs(60);
    /** Fixed interrupt-entry overhead (context save, vectoring). */
    Tick irqEntryLatency = fromUs(2);

    /** @{ DVFS (extension; CpuGovernor::None reproduces the paper). */
    CpuGovernor governor = CpuGovernor::None;
    /** Frequency steps as fractions of freqHz, ascending. */
    std::vector<double> freqSteps{0.5, 0.75, 1.0, 1.3};
    Tick governorPeriod = fromMs(10);
    double upThreshold = 0.70;   ///< utilization to raise a step
    double downThreshold = 0.25; ///< utilization to drop a step
    /** Active power scales ~ f * V^2 ~ f^powerExponent. */
    double powerExponent = 2.4;
    /** @} */

    CpuPowerParams power{};
};

/** A unit of software work. */
struct CpuTask
{
    std::uint64_t instructions = 0;
    /** True for interrupt service routines (run before queued tasks). */
    bool isr = false;
    std::function<void()> onComplete;
};

/** One in-order core with a task queue and a sleep governor. */
class CpuCore : public ClockedObject
{
  public:
    enum class State
    {
        Active,
        Idle,
        Sleep,
        Waking,
    };

    CpuCore(System &system, std::string name, const CpuConfig &cfg,
            EnergyLedger &ledger);

    /** Enqueue a task; wakes the core if necessary. */
    void dispatch(CpuTask task);

    /**
     * Deliver an interrupt: wakes the core and runs @p isr before any
     * queued normal task.
     */
    void interrupt(CpuTask isr);

    State state() const { return _state; }

    /** Queued + running task count (load metric for the cluster). */
    std::size_t load() const;

    /** @{ Accounting for the evaluation figures. */
    Tick activeTicks() const { return _activeTicks; }
    std::uint64_t instructions() const { return _instructions; }
    std::uint64_t interrupts() const { return _interrupts; }
    Tick sleepTicks() const;
    /** @} */

    const CpuConfig &config() const { return _cfg; }

    /** Current DVFS frequency (Hz). */
    double currentFreqHz() const { return _curFreqHz; }
    /** DVFS steps taken (up + down). */
    std::uint64_t dvfsTransitions() const { return _dvfsTransitions; }

    void startup() override;
    void finalize() override;
    void registerStats(StatRegistry &registry) override;

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

    /**
     * True when the core holds no work: nothing running or queued and
     * not mid-wake.  At such a point its only pending events are the
     * re-armable sleep/governor timers (checkpointing).
     */
    bool
    quiescent() const
    {
        return !_running && _queue.empty() &&
               (_state == State::Idle || _state == State::Sleep);
    }

    /** Checkpoint/restore. */
    void io(StateIO &io);

  private:
    void enterState(State s);
    void tryStart();
    void finishTask();
    void maybeSleep();
    void sleepTimerFired();
    void governorTick();
    double freqScale() const { return _curFreqHz / _cfg.freqHz; }

    CpuConfig _cfg;
    EnergyAccount &_energy;

    State _state = State::Idle;
    Tick _stateSince = 0;
    std::deque<CpuTask> _queue;
    bool _running = false;
    CpuTask _current;
    EventId _sleepEvent = InvalidEventId;

    Tick _activeTicks = 0;
    Tick _sleepTicks = 0;
    std::uint64_t _instructions = 0;
    std::uint64_t _interrupts = 0;

    // ---- observability (tracer string ids + task start tick;
    //      never digested, never affects behaviour) ----
    Tick _obsTaskStart = 0;
    std::uint32_t _obsTrk = 0;
    std::uint32_t _obsNmTask = 0;
    std::uint32_t _obsNmIsr = 0;
    std::uint32_t _obsNmIrq = 0;
    std::uint32_t _obsNmSleep = 0;
    std::uint32_t _obsNmWake = 0;
    void obsIntern(Tracer *tr);

    // DVFS state
    double _curFreqHz = 0.0;
    std::size_t _curStep = 0;
    Tick _lastGovActive = 0;
    std::uint64_t _dvfsTransitions = 0;
    EventId _govEvent = InvalidEventId;
};

} // namespace vip

#endif // VIP_CPU_CPU_CORE_HH
