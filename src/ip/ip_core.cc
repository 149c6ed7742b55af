#include "ip/ip_core.hh"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "obs/latency.hh"
#include "obs/stat_registry.hh"
#include "obs/tracer.hh"
#include "sim/state_io.hh"
#include "sim/system.hh"

namespace vip
{

namespace
{

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

void
IpCore::obsInternIds(Tracer *tr)
{
    if (_obsTrkEngine)
        return;
    _obsTrkEngine = tr->intern(name() + ".engine");
    _obsTrkExec = tr->intern(name() + ".exec");
    _obsNmActive = tr->intern("active");
    _obsNmStalled = tr->intern("stalled");
    _obsNmBp = tr->intern("backpressured");
    _obsNmUnit = tr->intern("unit");
    std::string stage = ipKindName(_p.kind);
    _obsNmStageAnnounce = tr->intern(stage + ":announce");
    _obsNmStageDone = tr->intern(stage + ":done");
    _obsNmGrant = tr->intern("grant");
    _obsNmCtxSwitch = tr->intern("ctx-switch");
}

std::pair<std::int32_t, std::int64_t>
IpCore::obsUnitIdentity() const
{
    if (_unitStream && _unitLane >= 0 &&
        _unitLane < static_cast<int>(_lanes.size())) {
        const Lane &l = _lanes[_unitLane];
        if (!l.frames.empty())
            return {static_cast<std::int32_t>(l.flow),
                    static_cast<std::int64_t>(l.frames.front().frameId)};
    } else if (_jobActive) {
        return {static_cast<std::int32_t>(_job.flowId),
                static_cast<std::int64_t>(_job.frameId)};
    }
    return {-1, -1};
}

void
IpCore::obsFaultInstant(const char *what)
{
    Tracer *tr = system().tracer();
    if (!tr || !tr->enabled(TraceCat::Fault))
        return;
    obsInternIds(tr);
    auto [flow, frame] = obsUnitIdentity();
    tr->instant(TraceCat::Fault, _obsTrkEngine, tr->intern(what),
                curTick(), flow, frame, _unitLane);
}

IpCore::IpCore(System &system, std::string name, const IpParams &params,
               SystemAgent &sa, EnergyLedger &ledger,
               FaultInjector *faults)
    : ClockedObject(system, std::move(name), ClockDomain(params.clockHz)),
      _p(params),
      _sa(sa),
      _energy(ledger.account("ip", this->name())),
      _bufferEnergy(ledger.account("buffer", this->name())),
      _faults(faults),
      _lanes(params.numLanes)
{
    vip_assert(params.numLanes >= 1 && params.numLanes <= 8,
               "lane count out of range");
    vip_assert(params.subframeBytes > 0 && params.laneBytes > 0,
               "bad buffer geometry");
    // Input + output buffer leakage scales with total capacity.
    auto est = SramModel::forCapacity(
        std::max<std::uint64_t>(1, _p.laneBytes) * 2 * _p.numLanes);
    _bufferEnergy.setPower(est.leakageWatts, 0);
    _energy.setPower(_p.power.idleWatts, 0);
    _laneSram = SramModel::forCapacity(_p.laneBytes);
    // A power-of-two word count, so a chunk's ring slot is a mask.
    std::uint64_t pending = ceilDiv(_p.laneBytes, _p.subframeBytes);
    while (_feedRingWords * 64 < pending)
        _feedRingWords *= 2;
    _feedArrived.assign(_lanes.size() * _feedRingWords, 0);
}

Tick
IpCore::computeTime(std::uint64_t in_bytes, std::uint64_t out_bytes) const
{
    std::uint64_t work = std::max<std::uint64_t>(
        {in_bytes, out_bytes, 1});
    return streamTime(work, _p.bytesPerCycle);
}

// --------------------------------------------------------------------
// Engine state & power accounting
// --------------------------------------------------------------------

bool
IpCore::anyWorkPending() const
{
    if (_jobActive || !_jobs.empty())
        return true;
    for (const auto &l : _lanes) {
        if (l.bound && l.hasBufferedWork())
            return true;
    }
    return false;
}

void
IpCore::accumulateState(Tick now)
{
    Tick dt = now - _stateSince;
    if (_engineState == EngineState::Active)
        _activeTicks += dt;
    else if (_engineState == EngineState::Stalled)
        _stallTicks += dt;
    else if (_engineState == EngineState::Backpressured)
        _bpStallTicks += dt;
    _stateSince = now;
}

bool
IpCore::outputBlocked(const Lane &l) const
{
    if (!l.bound || l.frames.empty())
        return false;
    const StreamFrame &f = l.frames.front();
    if (f.unitsDone >= f.units)
        return false;
    if (l.inAvail < f.curIn)
        return false;
    if (l.sink || !l.next || _p.overflowToMemory)
        return false;
    return l.outAccum + l.outQueueBytes + f.curOut > _p.laneBytes;
}

bool
IpCore::backpressured() const
{
    // Stream engine with a unit ready on the input side but no room
    // on the output side: the only missing resource is a downstream
    // credit.  A single-context IP committed to a transaction is
    // judged on its sticky lane alone.
    if (_jobActive || !_jobs.empty())
        return false;
    if (_stickyLane >= 0)
        return outputBlocked(_lanes[_stickyLane]);
    for (const auto &l : _lanes) {
        if (outputBlocked(l))
            return true;
    }
    return false;
}

void
IpCore::updateEngineState()
{
    EngineState next;
    if (_computing)
        next = EngineState::Active;
    else if (!anyWorkPending())
        next = EngineState::Idle;
    else if (backpressured())
        next = EngineState::Backpressured;
    else
        next = EngineState::Stalled;
    if (next == _engineState)
        return;
    Tick now = curTick();
    accumulateState(now);
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Ip)) {
        obsInternIds(tr);
        // Non-idle states render as back-to-back spans on the engine
        // track; idle is the gap between them.
        if (_engineState != EngineState::Idle)
            tr->end(TraceCat::Ip, _obsTrkEngine, now);
        if (next != EngineState::Idle) {
            std::uint32_t nm = next == EngineState::Active
                                   ? _obsNmActive
                                   : next == EngineState::Stalled
                                         ? _obsNmStalled
                                         : _obsNmBp;
            tr->begin(TraceCat::Ip, _obsTrkEngine, nm, now);
        }
    }
    _engineState = next;
    double watts = 0.0;
    switch (next) {
      case EngineState::Active:
        watts = _p.power.activeWatts;
        break;
      case EngineState::Stalled:
        watts = _p.power.stallWatts;
        break;
      case EngineState::Idle:
      case EngineState::Backpressured:
        // A backpressured engine has nothing to execute: it
        // clock-gates exactly like an idle one, so overload does not
        // inflate the energy numbers (Fig 15 stays honest).
        watts = _p.power.idleWatts;
        break;
    }
    _energy.setPower(watts, now);
}

double
IpCore::utilization() const
{
    Tick busy = _activeTicks + _stallTicks;
    if (busy == 0)
        return 0.0;
    return static_cast<double>(_activeTicks) /
           static_cast<double>(busy);
}

double
IpCore::dutyCycle() const
{
    Tick now = curTick();
    if (now == 0)
        return 0.0;
    return static_cast<double>(_activeTicks + _stallTicks) /
           static_cast<double>(now);
}

void
IpCore::finalize()
{
    accumulateState(curTick());
    _energy.close(curTick());
    _bufferEnergy.close(curTick());
}

void
IpCore::registerStats(StatRegistry &r)
{
    // "VD" -> "ip.vd.*"
    std::string p = "ip.";
    for (const char *k = ipKindName(kind()); *k; ++k)
        p += static_cast<char>(std::tolower(
            static_cast<unsigned char>(*k)));
    r.addExact(p + ".jobs", "job-mode jobs completed", "jobs",
               [this] { return double(_jobsCompleted); });
    r.addExact(p + ".subframes", "stream-mode work units processed",
               "units", [this] { return double(_subframes); });
    r.addExact(p + ".frames_exited", "frames consumed at sink lanes",
               "frames", [this] { return double(_framesExited); });
    r.addExact(p + ".context_switches", "hardware context switches",
               "", [this] { return double(_contextSwitches); });
    r.addExact(p + ".bytes_processed", "input bytes consumed by "
               "compute", "bytes",
               [this] { return double(_bytesProcessed); });
    r.addExact(p + ".bytes_spilled", "bytes detoured through DRAM by "
               "the overflow path", "bytes",
               [this] { return double(_bytesSpilled); });
    r.addExact(p + ".lane_overflows", "reservations that overran a "
               "lane (must stay 0)", "",
               [this] { return double(_laneOverflows); });
    r.addExact(p + ".credit_stalls", "producer pushes deferred for a "
               "downstream credit", "",
               [this] { return double(_creditStalls); });
    r.addExact(p + ".credits_reserved", "input-buffer bytes reserved",
               "bytes", [this] { return double(_creditsReserved); });
    r.addExact(p + ".credits_returned", "input-buffer bytes returned",
               "bytes", [this] { return double(_creditsReturned); });
    r.addExact(p + ".watchdog_resets", "engine resets by the "
               "watchdog", "",
               [this] { return double(_watchdogResets); });
    r.addExact(p + ".unit_retries", "work units retried after a "
               "fault", "",
               [this] { return double(_unitRetries); });
    r.addExact(p + ".frames_degraded", "frames drained as passthrough "
               "after retry exhaustion", "frames",
               [this] { return double(_framesDegraded); });
    r.addTiming(p + ".busy_ms", "time actively computing", "ms",
                [this] { return toMs(_activeTicks); });
    r.addTiming(p + ".stall_ms", "time stalled on memory", "ms",
                [this] { return toMs(_stallTicks); });
    r.addTiming(p + ".bp_stall_ms", "time backpressured on "
                "downstream credits", "ms",
                [this] { return toMs(_bpStallTicks); });
    r.addTiming(p + ".utilization", "active / (active + stalled)",
                "ratio", [this] { return utilization(); });
    r.addTiming(p + ".duty_cycle", "busy fraction of elapsed time",
                "ratio", [this] { return dutyCycle(); });
    r.addAccumulator(p + ".job_latency_ms", "job latency (ms)", "ms",
                     _jobLatencyMs);
}

std::string
IpCore::debugState() const
{
    std::ostringstream os;
    os << name() << ": "
       << (_computing
               ? "computing"
               : (!anyWorkPending()
                      ? "idle"
                      : (backpressured() ? "backpressured"
                                         : "stalled")));
    if (_laneOverflows > 0)
        os << " (!" << _laneOverflows << " lane overflows)";
    if (_computing && _unitAttempts > 0)
        os << " (unit retried " << _unitAttempts << "x)";
    if (_computing && _computeEvent == InvalidEventId &&
        _watchdogEvent == InvalidEventId) {
        os << " (engine wedged, no watchdog armed)";
    }
    if (_jobActive || !_jobs.empty()) {
        os << " job=" << _unitsComputed << "/" << _unitsTotal
           << " queued=" << _jobs.size();
    }
    os << " curLane=" << _currentLane << " sticky=" << _stickyLane;
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        const Lane &l = _lanes[i];
        if (!l.bound)
            continue;
        os << " L" << i << "[flow=" << l.flow
           << " frames=" << l.frames.size()
           << " in=" << l.inAvail << "/" << l.occupancy
           << " out=" << l.outQueueBytes
           << " feeds=" << l.feeds.size()
           << " dma=" << l.outstandingDma << "]";
    }
    return os.str();
}

// --------------------------------------------------------------------
// Fault injection + watchdog recovery
//
// Every compute unit of either mode funnels through startUnit(): the
// injector may wedge the engine (completion never fires) or corrupt
// the result (detected by CRC at completion); the watchdog detects
// wedges and recovery retries the unit with exponential backoff until
// the budget runs out, at which point the frame's payload is dropped
// and the remainder drains as zero-cost passthrough.
// --------------------------------------------------------------------

void
IpCore::startUnit(bool stream, int lane, Tick time, bool degraded)
{
    vip_assert(!_computing, "unit started while engine busy on ",
               name());
    _computing = true;
    _unitStream = stream;
    _unitLane = lane;
    _unitDegraded = degraded;
    _unitTime = degraded ? 0 : time;
    _unitStart = curTick();
    _unitAttempts = 0;
    armComputeAttempt(0);
}

void
IpCore::armComputeAttempt(Tick extra_delay)
{
    if (!_unitDegraded && _faults && _faults->injectEngineHang()) {
        // The engine wedges: no completion is scheduled.  Only the
        // watchdog (when configured) gets it moving again; without
        // one the IP stays stuck until the global no-progress guard
        // aborts the run.
        armWatchdog(extra_delay);
        return;
    }
    _computeEvent = scheduleIn(extra_delay + _unitTime,
                               [this] { onComputeAttemptDone(); },
                               EventPriority::Default, "ip.unit");
    if (!_unitDegraded && _faults)
        armWatchdog(extra_delay);
}

void
IpCore::armWatchdog(Tick extra_delay)
{
    if (!_faults || _faults->plan().watchdogTimeout == 0)
        return;
    _watchdogEvent =
        scheduleIn(extra_delay + _unitTime +
                       _faults->plan().watchdogTimeout,
                   [this] { onWatchdogTimeout(); },
                   EventPriority::Default, "ip.watchdog");
}

void
IpCore::cancelWatchdog()
{
    if (_watchdogEvent != InvalidEventId) {
        deschedule(_watchdogEvent);
        _watchdogEvent = InvalidEventId;
    }
}

void
IpCore::onComputeAttemptDone()
{
    vip_assert(_computing, "spurious unit completion on ", name());
    _computeEvent = InvalidEventId;
    cancelWatchdog();
    // The CRC over the unit's output is checked at completion; a
    // corrupted sub-frame is recomputed from the (still buffered)
    // input.
    if (!_unitDegraded && _faults &&
        _faults->injectSubframeCorruption()) {
        retryUnit(/*from_reset=*/false);
        return;
    }
    finishUnit();
}

void
IpCore::onWatchdogTimeout()
{
    vip_assert(_computing, "watchdog fired on idle engine of ", name());
    _watchdogEvent = InvalidEventId;
    if (_computeEvent != InvalidEventId) {
        deschedule(_computeEvent);
        _computeEvent = InvalidEventId;
    }
    ++_watchdogResets;
    _faults->noteWatchdogReset();
    obsFaultInstant("watchdog-reset");
    retryUnit(/*from_reset=*/true);
}

void
IpCore::retryUnit(bool from_reset)
{
    ++_unitAttempts;
    ++_unitRetries;
    _faults->noteUnitRetry();
    obsFaultInstant("unit-retry");
    if (_unitAttempts > _faults->plan().maxRetries) {
        giveUpUnit();
        return;
    }
    // A reset pays the engine reset penalty, doubling per consecutive
    // retry (backoff); a CRC retry recomputes immediately.
    Tick backoff = from_reset
        ? _faults->plan().resetPenalty << (_unitAttempts - 1)
        : 0;
    armComputeAttempt(backoff);
}

void
IpCore::giveUpUnit()
{
    // Retry budget exhausted: the frame's payload is lost.  The unit
    // (and the frame's remaining units) complete as zero-cost
    // passthrough so byte accounting and downstream credits stay
    // consistent and the chain resynchronizes at the next frame
    // boundary; the display end sees a degraded frame.
    ++_framesDegraded;
    _faults->noteFrameDegraded();
    obsFaultInstant("unit-giveup");
    if (_unitStream) {
        Lane &l = _lanes[_unitLane];
        vip_assert(!l.frames.empty(), "give-up on empty lane");
        l.frames.front().faulted = true;
        if (_onDegrade)
            _onDegrade(l.flow, l.frames.front().frameId);
    } else {
        _jobFaulted = true;
        if (_onDegrade)
            _onDegrade(_job.flowId, _job.frameId);
    }
    finishUnit();
}

void
IpCore::finishUnit()
{
    if (_unitAttempts > 0) {
        Tick elapsed = curTick() - _unitStart;
        Tick extra = elapsed > _unitTime ? elapsed - _unitTime : 0;
        _faults->noteRecoveryLatency(extra);
    }
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Ip)) {
        obsInternIds(tr);
        auto [flow, frame] = obsUnitIdentity();
        tr->complete(TraceCat::Ip, _obsTrkExec, _obsNmUnit, _unitStart,
                     curTick(), flow, frame, _unitLane,
                     static_cast<double>(_unitInBytes));
    }
    if (_unitStream) {
        // The unit held its input-buffer reservation across every
        // retry/reset; the credits go back upstream exactly once,
        // now that the input can no longer be needed.  Before the
        // completion handler: it may retire the frame and tear the
        // lane down.
        std::uint64_t held = std::exchange(_unitInBytes, 0);
        if (held > 0)
            returnLaneCredits(_unitLane, held);
        onUnitComputed(_unitLane);
    } else {
        onJobUnitComputed();
    }
}

// --------------------------------------------------------------------
// Job mode
// --------------------------------------------------------------------

bool
IpCore::submitJob(StageJob job)
{
    if (queueFull())
        return false;
    job.obsEnqueue = curTick();
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Frame)) {
        obsInternIds(tr);
        tr->asyncInstant(TraceCat::Frame, _obsNmStageAnnounce,
                         curTick(),
                         static_cast<std::int32_t>(job.flowId),
                         static_cast<std::int64_t>(job.frameId));
    }
    _jobs.push_back(std::move(job));
    tryStartJob();
    updateEngineState();
    return true;
}

void
IpCore::tryStartJob()
{
    if (_jobActive || _jobs.empty())
        return;

    // Pick by the configured hardware policy.
    std::size_t idx = 0;
    if (_p.sched == SchedPolicy::EDF) {
        for (std::size_t i = 1; i < _jobs.size(); ++i) {
            if (_jobs[i].deadline < _jobs[idx].deadline)
                idx = i;
        }
    }
    _job = std::move(_jobs[idx]);
    _jobs.erase(_jobs.begin() + idx);
    _jobActive = true;
    _jobStartTick = curTick();
    _obsJobComputeAccum = 0;
    if (_job.onStart)
        _job.onStart();

    std::uint64_t span =
        std::max<std::uint64_t>({_job.inputBytes, _job.outputBytes, 1});
    _unitsTotal = ceilDiv(span, _p.dmaChunkBytes);
    _unitsIssued = 0;
    _unitsReady = 0;
    _unitsComputed = 0;
    _writesDone = 0;
    _readsOutstanding = 0;

    if (!_job.readsMemory || _job.inputBytes == 0) {
        _unitsIssued = _unitsTotal;
        _unitsReady = _unitsTotal;
    }
    issueJobReads();
    tryComputeJobUnit();
    updateEngineState();
}

void
IpCore::issueJobReads()
{
    if (!_jobActive || !_job.readsMemory || _job.inputBytes == 0)
        return;
    std::uint64_t in_unit =
        std::max<std::uint64_t>(1, ceilDiv(_job.inputBytes, _unitsTotal));
    while (_unitsIssued < _unitsTotal &&
           _readsOutstanding < _p.maxOutstandingDma) {
        std::uint64_t k = _unitsIssued++;
        ++_readsOutstanding;
        MemRequest req;
        req.addr = _job.inputAddr + k * in_unit;
        req.bytes = static_cast<std::uint32_t>(in_unit);
        req.write = false;
        req.requesterId = static_cast<std::uint32_t>(_p.kind);
        req.onComplete = [this] {
            --_readsOutstanding;
            ++_unitsReady;
            tryComputeJobUnit();
            issueJobReads();
        };
        _sa.memoryAccess(std::move(req));
    }
}

void
IpCore::tryComputeJobUnit()
{
    if (!_jobActive || _computing || _unitsReady == 0) {
        updateEngineState();
        return;
    }
    --_unitsReady;
    std::uint64_t in_unit = ceilDiv(_job.inputBytes, _unitsTotal);
    std::uint64_t out_unit = ceilDiv(_job.outputBytes, _unitsTotal);
    Tick time = computeTime(in_unit, out_unit);
    if (!_jobFaulted)
        _obsJobComputeAccum += time;
    startUnit(/*stream=*/false, /*lane=*/-1, time, _jobFaulted);
    updateEngineState();
}

void
IpCore::onJobUnitComputed()
{
    vip_assert(_jobActive && _computing, "spurious job unit completion");
    _computing = false;
    std::uint64_t k = _unitsComputed++;
    std::uint64_t out_unit = ceilDiv(_job.outputBytes, _unitsTotal);
    _bytesProcessed += std::max(ceilDiv(_job.inputBytes, _unitsTotal),
                                out_unit);

    if (_job.writesMemory && _job.outputBytes > 0) {
        MemRequest req;
        req.addr = _job.outputAddr + k * out_unit;
        req.bytes = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(1, out_unit));
        req.write = true;
        req.requesterId = static_cast<std::uint32_t>(_p.kind);
        req.onComplete = [this] {
            ++_writesDone;
            checkJobDone();
        };
        _sa.memoryAccess(std::move(req));
    } else {
        ++_writesDone;
    }

    issueJobReads();
    tryComputeJobUnit();
    checkJobDone();
    updateEngineState();
}

void
IpCore::checkJobDone()
{
    if (!_jobActive || _unitsComputed < _unitsTotal ||
        _writesDone < _unitsTotal) {
        return;
    }
    _jobActive = false;
    _jobFaulted = false;
    ++_jobsCompleted;
    _jobLatencyMs.sample(toMs(curTick() - _jobStartTick));

    // Latency decomposition + lifecycle mark, before tryStartJob()
    // below replaces _job with the next queued one.
    Tick ob_wait = _jobStartTick > _job.obsEnqueue
        ? _jobStartTick - _job.obsEnqueue : 0;
    Tick ob_total = curTick() > _job.obsEnqueue
        ? curTick() - _job.obsEnqueue : 0;
    Tick ob_comp = std::min(_obsJobComputeAccum, ob_total);
    Tick ob_blocked = ob_total > ob_wait + ob_comp
        ? ob_total - ob_wait - ob_comp : 0;
    if (LatencyCollector *lc = system().latency())
        lc->recordStage(ipKindName(_p.kind), ob_wait, ob_comp,
                        ob_blocked, ob_total);
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Frame)) {
        obsInternIds(tr);
        tr->asyncInstant(TraceCat::Frame, _obsNmStageDone,
                         curTick(),
                         static_cast<std::int32_t>(_job.flowId),
                         static_cast<std::int64_t>(_job.frameId));
    }

    auto cb = std::move(_job.onComplete);
    auto drain = _queueDrainCb;
    tryStartJob();
    updateEngineState();
    if (drain)
        drain();
    if (cb)
        cb();
}

// --------------------------------------------------------------------
// Stream mode: lane management
// --------------------------------------------------------------------

int
IpCore::bindLane(FlowId flow)
{
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        Lane &l = _lanes[i];
        if (l.bound)
            continue;
        l = Lane{};
        l.bound = true;
        l.flow = flow;
        return static_cast<int>(i);
    }
    return -1;
}

void
IpCore::unbindLane(int lane)
{
    Lane &l = _lanes.at(lane);
    vip_assert(l.bound, "unbinding unbound lane on ", name());
    vip_assert(!l.active(), "unbinding active lane on ", name());
    if (_stickyLane == lane)
        _stickyLane = -1;
    if (_currentLane == lane)
        _currentLane = -1;
    l = Lane{};
}

std::uint32_t
IpCore::boundLanes() const
{
    std::uint32_t n = 0;
    for (const auto &l : _lanes)
        n += l.bound ? 1 : 0;
    return n;
}

void
IpCore::connectLane(int lane, IpCore *next, int next_lane)
{
    Lane &l = _lanes.at(lane);
    vip_assert(l.bound, "connecting unbound lane");
    l.next = next;
    l.nextLane = next_lane;
    l.sink = false;
}

void
IpCore::makeLaneSink(int lane, FrameExitFn on_exit)
{
    Lane &l = _lanes.at(lane);
    vip_assert(l.bound, "sink on unbound lane");
    l.sink = true;
    l.next = nullptr;
    l.onExit = std::move(on_exit);
}

void
IpCore::setLaneFrameStartCb(int lane, FrameStartFn cb)
{
    _lanes.at(lane).onFrameStart = std::move(cb);
}

void
IpCore::announceFrame(int lane, std::uint64_t frame_id,
                      std::uint64_t in_bytes, std::uint64_t out_bytes,
                      Tick deadline, bool txn_end)
{
    Lane &l = _lanes.at(lane);
    vip_assert(l.bound, "announcing on unbound lane of ", name());
    vip_assert(in_bytes > 0, "frame with no input at ", name());

    StreamFrame f;
    f.frameId = frame_id;
    f.inBytes = in_bytes;
    f.outBytes = out_bytes;
    f.deadline = deadline;
    f.txnEnd = txn_end;
    f.units = ceilDiv(std::max(in_bytes, out_bytes), _p.subframeBytes);
    fillUnitGeometry(f);
    f.obsAnnounce = curTick();
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Frame)) {
        obsInternIds(tr);
        tr->asyncInstant(TraceCat::Frame, _obsNmStageAnnounce,
                         curTick(),
                         static_cast<std::int32_t>(l.flow),
                         static_cast<std::int64_t>(frame_id));
    }
    l.frames.push_back(f);
    kickStream();
}

std::uint64_t
IpCore::laneOccupancy(int lane) const
{
    return _lanes.at(lane).occupancy;
}

std::uint64_t
IpCore::laneInAvail(int lane) const
{
    return _lanes.at(lane).inAvail;
}

bool
IpCore::laneHasSpace(int lane, std::uint32_t bytes) const
{
    const Lane &l = _lanes.at(lane);
    return l.occupancy + bytes <= _p.laneBytes;
}

void
IpCore::reserveLaneSpace(int lane, std::uint32_t bytes)
{
    Lane &l = _lanes.at(lane);
    l.occupancy += bytes;
    _creditsReserved += bytes;
    // Producers must check laneHasSpace() first; a reservation past
    // capacity means the credit protocol was violated.  Counted (not
    // asserted) so sweeps can prove "zero overflows at any load".
    if (l.occupancy > _p.laneBytes)
        ++_laneOverflows;
}

void
IpCore::setCreditWaiter(int lane, std::function<void()> cb)
{
    _lanes.at(lane).creditWaiter = std::move(cb);
}

void
IpCore::deliverBytes(int lane, std::uint32_t bytes)
{
    Lane &l = _lanes.at(lane);
    vip_assert(l.bound, "bytes delivered to unbound lane on ", name());
    if (l.inAvail == 0)
        l.headArrival = curTick();
    l.inAvail += bytes;
    _bufferEnergy.addDynamicNj(_laneSram.writeNj(bytes));
    kickStream();
}

void
IpCore::consumeInput(int lane, std::uint64_t bytes)
{
    Lane &l = _lanes[lane];
    vip_assert(l.inAvail >= bytes,
               "input buffer underflow on ", name());
    l.inAvail -= bytes;
}

void
IpCore::returnLaneCredits(int lane, std::uint64_t bytes)
{
    Lane &l = _lanes[lane];
    vip_assert(l.occupancy >= bytes,
               "credit double-release on ", name());
    l.occupancy -= bytes;
    _creditsReturned += bytes;
    if (l.creditWaiter) {
        auto cb = std::exchange(l.creditWaiter, nullptr);
        _sa.signal(std::move(cb));
    }
    pumpFeeds(lane);
}

// --------------------------------------------------------------------
// Stream mode: head-of-chain feeds
// --------------------------------------------------------------------

void
IpCore::feedFrame(int lane, std::uint64_t frame_id, std::uint64_t bytes,
                  Addr addr, bool generate, Tick gen_span)
{
    Lane &l = _lanes.at(lane);
    vip_assert(l.bound, "feeding unbound lane on ", name());
    vip_assert(bytes > 0, "feeding empty frame");

    Feed f;
    f.frameId = frame_id;
    f.addr = addr;
    f.total = bytes;
    f.generate = generate;
    if (generate && gen_span > 0) {
        std::uint64_t chunks = ceilDiv(bytes, _p.subframeBytes);
        f.genInterval = gen_span / chunks;
    }
    l.feeds.push_back(std::move(f));
    pumpFeeds(lane);
    updateEngineState();
}

void
IpCore::pumpFeeds(int lane)
{
    Lane &l = _lanes[lane];
    if (l.feeds.empty())
        return;
    Feed &f = l.feeds.front();
    const std::uint32_t chunk = _p.subframeBytes;

    if (f.generate) {
        if (f.genArmed || f.issued >= f.total)
            return;
        std::uint32_t sz = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, f.total - f.issued));
        if (l.occupancy + sz > _p.laneBytes)
            return; // wait for credit; releaseInputBytes re-pumps
        f.genArmed = true;
        reserveLaneSpace(lane, sz);
        std::uint64_t offset = f.issued;
        f.issued += sz;
        scheduleIn(f.genInterval, [this, lane, offset] {
            Lane &ll = _lanes[lane];
            if (!ll.feeds.empty())
                ll.feeds.front().genArmed = false;
            onFeedChunkReady(lane, offset);
        }, EventPriority::Default, "ip.gen");
        return;
    }

    while (f.issued < f.total &&
           l.outstandingDma < _p.maxOutstandingDma) {
        std::uint32_t sz = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, f.total - f.issued));
        if (l.occupancy + sz > _p.laneBytes)
            break; // wait for credit
        reserveLaneSpace(lane, sz);
        ++l.outstandingDma;
        std::uint64_t offset = f.issued;
        f.issued += sz;

        MemRequest req;
        req.addr = f.addr + offset;
        req.bytes = sz;
        req.write = false;
        req.requesterId = static_cast<std::uint32_t>(_p.kind);
        req.onComplete = [this, lane, offset] {
            --_lanes[lane].outstandingDma;
            onFeedChunkReady(lane, offset);
        };
        _sa.memoryAccess(std::move(req));
    }
}

std::uint64_t &
IpCore::feedArrivedWord(int lane, std::uint64_t chunk_idx)
{
    return _feedArrived[static_cast<std::size_t>(lane) * _feedRingWords +
                        ((chunk_idx >> 6) & (_feedRingWords - 1))];
}

void
IpCore::onFeedChunkReady(int lane, std::uint64_t offset)
{
    Lane &l = _lanes[lane];
    vip_assert(!l.feeds.empty(), "feed chunk for retired feed on ",
               name());
    vip_assert(offset - l.feeds.front().delivered <
                   _feedRingWords * 64 * _p.subframeBytes,
               "feed chunk past the arrival ring on ", name());
    std::uint64_t idx = offset / _p.subframeBytes;
    feedArrivedWord(lane, idx) |= std::uint64_t(1) << (idx & 63);
    deliverInOrder(lane);
}

void
IpCore::deliverInOrder(int lane)
{
    Lane &l = _lanes[lane];
    const std::uint32_t chunk = _p.subframeBytes;
    bool deliveredAny = false;
    bool retired = false;
    while (!l.feeds.empty()) {
        Feed &f = l.feeds.front();
        std::uint64_t idx = f.delivered / chunk;
        std::uint64_t &word = feedArrivedWord(lane, idx);
        std::uint64_t bit = std::uint64_t(1) << (idx & 63);
        if (!(word & bit))
            break;
        word &= ~bit;
        // The chunk's size, derived as pumpFeeds() cut it.
        std::uint32_t sz = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, f.total - f.delivered));
        bool first = f.delivered == 0;
        f.delivered += sz;
        bool last = f.delivered >= f.total;

        if (first && l.onFrameStart)
            l.onFrameStart(l.flow, f.frameId);

        if (l.inAvail == 0)
            l.headArrival = curTick();
        l.inAvail += sz;
        _bufferEnergy.addDynamicNj(_laneSram.writeNj(sz));
        deliveredAny = true;

        if (last) {
            const std::uint64_t *ring =
                &_feedArrived[static_cast<std::size_t>(lane) *
                              _feedRingWords];
            vip_assert(std::all_of(ring, ring + _feedRingWords,
                                   [](std::uint64_t w) { return w == 0; }),
                       "stray chunks past frame end");
            l.feeds.pop_front();
            retired = true;
        }
    }
    if (deliveredAny || retired)
        pumpFeeds(lane);
    if (deliveredAny)
        kickStream();
}

// --------------------------------------------------------------------
// Stream mode: engine
// --------------------------------------------------------------------

void
IpCore::fillUnitGeometry(StreamFrame &f) const
{
    f.curIn = f.unitIn(f.unitsDone);
    f.curOut = f.unitOut(f.unitsDone);
    f.curTime = computeTime(f.curIn, f.curOut);
}

bool
IpCore::laneRunnable(const Lane &l) const
{
    if (!l.bound || l.frames.empty())
        return false;
    const StreamFrame &f = l.frames.front();
    if (f.unitsDone >= f.units)
        return false;
    if (l.inAvail < f.curIn)
        return false;
    // Output must fit the lane's output buffer (sinks produce none).
    // With the overflow-to-memory option the output buffer drains to
    // DRAM instead, so it never gates the engine.
    if (!l.sink && l.next && !_p.overflowToMemory) {
        std::uint64_t pendingOut = l.outAccum + l.outQueueBytes + f.curOut;
        if (pendingOut > _p.laneBytes)
            return false;
    }
    return true;
}

int
IpCore::pickLane() const
{
    int best = -1;
    switch (_p.sched) {
      case SchedPolicy::FIFO: {
        Tick bestKey = MaxTick;
        for (std::size_t i = 0; i < _lanes.size(); ++i) {
            const Lane &l = _lanes[i];
            if (!laneRunnable(l))
                continue;
            if (best < 0 || l.headArrival < bestKey) {
                best = static_cast<int>(i);
                bestKey = l.headArrival;
            }
        }
        break;
      }
      case SchedPolicy::RoundRobin: {
        std::size_t n = _lanes.size();
        for (std::size_t k = 1; k <= n; ++k) {
            std::size_t i = (_currentLane + k) % n;
            if (laneRunnable(_lanes[i])) {
                best = static_cast<int>(i);
                break;
            }
        }
        break;
      }
      case SchedPolicy::EDF: {
        Tick bestKey = MaxTick;
        for (std::size_t i = 0; i < _lanes.size(); ++i) {
            const Lane &l = _lanes[i];
            if (!laneRunnable(l))
                continue;
            Tick d = l.frames.front().deadline;
            if (best < 0 || d < bestKey) {
                best = static_cast<int>(i);
                bestKey = d;
            }
        }
        break;
      }
    }
    return best;
}

void
IpCore::kickStream()
{
    int lane = -1;
    if (!_computing && !_jobActive) {
        // A single-context IP committed to a transaction may only
        // continue that lane; while the lane is not runnable the
        // engine waits, blocking other flows (Fig 7).
        if (_stickyLane < 0)
            lane = pickLane();
        else if (laneRunnable(_lanes[_stickyLane]))
            lane = _stickyLane;
    }
    if (lane >= 0)
        startStreamUnit(lane);
    updateEngineState();
}

void
IpCore::startStreamUnit(int lane)
{
    Lane &l = _lanes[lane];
    StreamFrame &f = l.frames.front();

    bool cs = _currentLane >= 0 && _currentLane != lane;
    if (cs) {
        ++_contextSwitches;
        _energy.addDynamicNj(_p.power.contextSwitchNj);
    }
    _currentLane = lane;

    // Commit the single context until the frame/transaction boundary.
    if (_p.switchGranularity != SwitchGranularity::Subframe)
        _stickyLane = lane;

    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Sched)) {
        obsInternIds(tr);
        if (cs)
            tr->instant(TraceCat::Sched, _obsTrkEngine, _obsNmCtxSwitch,
                        curTick(), static_cast<std::int32_t>(l.flow),
                        static_cast<std::int64_t>(f.frameId), lane);
        if (f.unitsDone == 0 && f.obsFirstStart == 0)
            tr->instant(TraceCat::Sched, _obsTrkEngine, _obsNmGrant,
                        curTick(), static_cast<std::int32_t>(l.flow),
                        static_cast<std::int64_t>(f.frameId), lane);
    }
    if (f.unitsDone == 0 && f.obsFirstStart == 0)
        f.obsFirstStart = curTick();
    if (!f.faulted)
        f.obsComputeAccum += f.curTime;

    if (f.curIn > 0) {
        _bufferEnergy.addDynamicNj(_laneSram.readNj(f.curIn));
        consumeInput(lane, f.curIn);
    }
    _unitInBytes = f.curIn;

    startUnit(/*stream=*/true, lane,
              f.curTime + (cs ? _p.contextSwitchPenalty : 0), f.faulted);
}

void
IpCore::onUnitComputed(int lane)
{
    vip_assert(_computing, "spurious unit completion");
    _computing = false;
    ++_subframes;

    Lane &l = _lanes[lane];
    vip_assert(!l.frames.empty(), "unit completed on empty lane");
    StreamFrame &f = l.frames.front();

    std::uint64_t uOut = f.curOut;
    _bytesProcessed += std::max(f.curIn, uOut);
    ++f.unitsDone;
    bool frameDone = f.unitsDone >= f.units;
    if (!frameDone)
        fillUnitGeometry(f);

    if (!l.sink && l.next) {
        l.outAccum += uOut;
        while (l.outAccum >= _p.subframeBytes) {
            l.outQueue.push_back(_p.subframeBytes);
            l.outQueueBytes += _p.subframeBytes;
            l.outAccum -= _p.subframeBytes;
        }
        if (frameDone && l.outAccum > 0) {
            l.outQueue.push_back(
                static_cast<std::uint32_t>(l.outAccum));
            l.outQueueBytes += l.outAccum;
            l.outAccum = 0;
        }
    }

    if (frameDone) {
        // Latency decomposition + lifecycle mark, before the frame
        // context is retired below.  Wait = visible-to-started,
        // compute = nominal unit time (retries land in "blocked").
        Tick ob_total = curTick() > f.obsAnnounce
            ? curTick() - f.obsAnnounce : 0;
        Tick ob_wait = f.obsFirstStart > f.obsAnnounce
            ? f.obsFirstStart - f.obsAnnounce : 0;
        if (ob_wait > ob_total)
            ob_wait = ob_total;
        Tick ob_comp = std::min(f.obsComputeAccum, ob_total - ob_wait);
        Tick ob_blocked = ob_total - ob_wait - ob_comp;
        if (LatencyCollector *lc = system().latency())
            lc->recordStage(ipKindName(_p.kind), ob_wait, ob_comp,
                            ob_blocked, ob_total);
        if (Tracer *tr = system().tracer();
            tr && tr->enabled(TraceCat::Frame)) {
            obsInternIds(tr);
            tr->asyncInstant(TraceCat::Frame, _obsNmStageDone,
                             curTick(),
                             static_cast<std::int32_t>(l.flow),
                             static_cast<std::int64_t>(f.frameId));
        }
        // Release the single context at the configured boundary.
        if ((_p.switchGranularity == SwitchGranularity::Frame) ||
            (_p.switchGranularity == SwitchGranularity::Transaction &&
             f.txnEnd)) {
            _stickyLane = -1;
        }
        bool sink = l.sink;
        FlowId flow = l.flow;
        std::uint64_t frame_id = f.frameId;
        auto onExit = l.onExit;
        // Retire the frame context *before* signalling the exit: the
        // callback may tear the (now drained) chain down, which
        // unbinds this very lane; the local copies survive the reset.
        l.frames.pop_front();
        if (sink) {
            ++_framesExited;
            if (onExit)
                onExit(flow, frame_id);
            // The lane (and this reference) may be gone now.
            kickStream();
            return;
        }
    }

    pushOutput(lane);
    kickStream();
}

void
IpCore::pushOutput(int lane)
{
    Lane &l = _lanes[lane];
    if (!l.next)
        return;
    bool pushed = false;
    while (!l.outQueue.empty()) {
        std::uint32_t sz = l.outQueue.front();
        // Ordering: while spilled data awaits the consumer, direct
        // pushes must follow it through memory.
        bool blocked = !l.spillQueue.empty() ||
                       !l.next->laneHasSpace(l.nextLane, sz);
        if (blocked && _p.overflowToMemory) {
            l.outQueue.pop_front();
            l.outQueueBytes -= sz;
            spillChunk(lane, sz);
            pushed = true;
            continue;
        }
        if (blocked) {
            ++_creditStalls;
            IpCore *next = l.next;
            int nl = l.nextLane;
            next->setCreditWaiter(nl, [this, lane] {
                pushOutput(lane);
                kickStream();
            });
            break;
        }
        l.next->reserveLaneSpace(l.nextLane, sz);
        l.outQueue.pop_front();
        l.outQueueBytes -= sz;
        _bufferEnergy.addDynamicNj(_laneSram.readNj(sz));
        IpCore *next = l.next;
        int nl = l.nextLane;
        _sa.peerTransfer(sz, [next, nl, sz] {
            next->deliverBytes(nl, sz);
        });
        pushed = true;
    }
    if (pushed)
        kickStream();
}

void
IpCore::spillChunk(int lane, std::uint32_t bytes)
{
    Lane &l = _lanes[lane];
    // Stage the chunk in a per-IP DRAM spill region (bump pointer
    // over a wrapping window; the data is transient).
    constexpr Addr kSpillBase = Addr(1) << 40;
    constexpr Addr kSpillWindow = 16_MiB;
    Addr addr = kSpillBase + (_spillNext % kSpillWindow);
    _spillNext += bytes;
    _bytesSpilled += bytes;
    l.spillBytes += bytes;

    l.spillQueue.push_back(Lane::Spill{addr, bytes, false});
    auto *entry = &l.spillQueue.back();

    MemRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.write = true;
    req.requesterId = static_cast<std::uint32_t>(_p.kind);
    req.onComplete = [this, lane, addr] {
        Lane &ll = _lanes[lane];
        for (auto &sp : ll.spillQueue) {
            if (sp.addr == addr && !sp.writeDone) {
                sp.writeDone = true;
                break;
            }
        }
        pumpSpills(lane);
    };
    (void)entry;
    _sa.memoryAccess(std::move(req));
}

void
IpCore::pumpSpills(int lane)
{
    Lane &l = _lanes[lane];
    if (l.refillInFlight || l.spillQueue.empty() || !l.next)
        return;
    Lane::Spill &sp = l.spillQueue.front();
    if (!sp.writeDone)
        return; // read-after-write hazard: wait for the store
    if (!l.next->laneHasSpace(l.nextLane, sp.bytes)) {
        ++_creditStalls;
        l.next->setCreditWaiter(l.nextLane,
                                [this, lane] { pumpSpills(lane); });
        return;
    }
    l.next->reserveLaneSpace(l.nextLane, sp.bytes);
    l.refillInFlight = true;

    MemRequest req;
    req.addr = sp.addr;
    req.bytes = sp.bytes;
    req.write = false;
    req.requesterId = static_cast<std::uint32_t>(_p.kind);
    std::uint32_t bytes = sp.bytes;
    IpCore *next = l.next;
    int nl = l.nextLane;
    req.onComplete = [this, lane, next, nl, bytes] {
        Lane &ll = _lanes[lane];
        vip_assert(!ll.spillQueue.empty(), "spill queue underflow");
        ll.spillQueue.pop_front();
        ll.spillBytes -= bytes;
        ll.refillInFlight = false;
        next->deliverBytes(nl, bytes);
        pumpSpills(lane);
        pushOutput(lane);
    };
    _sa.memoryAccess(std::move(req));
}

void
IpCore::auditInvariants(AuditContext &ctx) const
{
    // Credit conservation: every reserved input byte is either still
    // occupying a lane or was returned upstream, exactly once.
    std::uint64_t occupied = 0;
    for (const Lane &l : _lanes)
        occupied += l.occupancy;
    ctx.checkEq("ip.credit_ledger", _creditsReserved,
                _creditsReturned + occupied,
                "reserved != returned + occupied");
    ctx.checkEq("ip.lane_overflows", _laneOverflows, 0,
                "reservation overran lane capacity");

    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        const Lane &l = _lanes[i];
        std::string lane = "lane " + std::to_string(i);
        // Buffered input is covered by the lane's reservation.
        ctx.checkLe("ip.inavail_le_occupancy", l.inAvail, l.occupancy,
                    lane);
        std::uint64_t outq = 0;
        for (std::uint32_t c : l.outQueue)
            outq += c;
        ctx.checkEq("ip.outqueue_bytes", outq, l.outQueueBytes, lane);
        std::uint64_t spillq = 0;
        for (const Lane::Spill &sp : l.spillQueue)
            spillq += sp.bytes;
        ctx.checkLe("ip.spill_bytes", spillq, l.spillBytes, lane);
        for (const StreamFrame &f : l.frames) {
            std::string frame = lane + " frame " + std::to_string(f.frameId);
            ctx.checkLe("ip.units_done", f.unitsDone, f.units, frame);
            if (f.unitsDone >= f.units)
                continue;
            // The cached geometry of the unit in line is the formula's.
            ctx.checkEq("ip.unit_geometry", f.curIn,
                        f.unitIn(f.unitsDone), frame + " input bytes");
            ctx.checkEq("ip.unit_geometry", f.curOut,
                        f.unitOut(f.unitsDone), frame + " output bytes");
            ctx.checkEq("ip.unit_geometry", f.curTime,
                        computeTime(f.curIn, f.curOut),
                        frame + " compute ticks");
        }
        if (!l.bound) {
            ctx.checkTrue("ip.unbound_lane_empty", !l.active(),
                          lane + " holds work while unbound");
        }
    }

    // Time accounting never exceeds elapsed simulated time.
    ctx.checkLe("ip.time_accounting",
                static_cast<std::uint64_t>(_activeTicks + _stallTicks +
                                           _bpStallTicks),
                static_cast<std::uint64_t>(curTick()),
                "state buckets exceed elapsed time");
}

void
IpCore::stateDigest(StateDigest &d) const
{
    d.add(name());
    d.add(static_cast<std::uint64_t>(_engineState));
    d.add(static_cast<std::uint64_t>(_activeTicks));
    d.add(static_cast<std::uint64_t>(_stallTicks));
    d.add(static_cast<std::uint64_t>(_bpStallTicks));
    d.add(_jobsCompleted);
    d.add(_subframes);
    d.add(_framesExited);
    d.add(_contextSwitches);
    d.add(_bytesProcessed);
    d.add(_bytesSpilled);
    d.add(_laneOverflows);
    d.add(_creditStalls);
    d.add(_creditsReserved);
    d.add(_creditsReturned);
    d.add(_watchdogResets);
    d.add(_unitRetries);
    d.add(_framesDegraded);
    d.add(static_cast<std::uint64_t>(_jobs.size()));
    d.add(_jobActive);
    d.add(_computing);
    d.add(_unitInBytes);
    d.add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(_currentLane)));
    d.add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(_stickyLane)));
    for (const Lane &l : _lanes) {
        d.add(l.bound);
        d.add(static_cast<std::uint64_t>(l.flow));
        d.add(l.occupancy);
        d.add(l.inAvail);
        d.add(static_cast<std::uint64_t>(l.frames.size()));
        d.add(static_cast<std::uint64_t>(l.feeds.size()));
        d.add(static_cast<std::uint64_t>(l.outstandingDma));
        d.add(l.outAccum);
        d.add(l.outQueueBytes);
        d.add(l.spillBytes);
        for (const StreamFrame &f : l.frames) {
            d.add(f.frameId);
            d.add(f.unitsDone);
            d.add(f.faulted);
        }
    }
}

bool
IpCore::quiescent() const
{
    if (_jobActive || _computing || !_jobs.empty() ||
        _computeEvent != InvalidEventId ||
        _watchdogEvent != InvalidEventId)
        return false;
    for (const Lane &l : _lanes) {
        if (l.active() || l.outstandingDma > 0 || l.refillInFlight ||
            l.creditWaiter)
            return false;
    }
    return true;
}

void
IpCore::io(StateIO &io)
{
    vip_assert(io.loading() || quiescent(),
               "checkpointing ", name(), " with work in flight");
    io.u8(_engineState);
    io.tick(_stateSince);
    io.tick(_activeTicks);
    io.tick(_stallTicks);
    io.tick(_bpStallTicks);
    io.u64(_jobsCompleted);
    io.u64(_subframes);
    io.u64(_framesExited);
    io.u64(_contextSwitches);
    io.u64(_bytesProcessed);
    io.u64(_bytesSpilled);
    io.u64(_laneOverflows);
    io.u64(_creditStalls);
    io.u64(_creditsReserved);
    io.u64(_creditsReturned);
    io.u64(_watchdogResets);
    io.u64(_unitRetries);
    io.u64(_framesDegraded);
    io.u64(_spillNext);
    io.i64(_currentLane);
    io.i64(_stickyLane);
    // Lane topology: bindings are restored here; the inter-IP wiring
    // (next/nextLane/sink/callbacks) is structural and re-created by
    // ChainManager::io, whose section follows every IP's.
    io.shape(name(), "lanes", _lanes.size());
    for (Lane &l : _lanes) {
        io.b(l.bound);
        io.u64(l.flow);
        io.tick(l.headArrival);
    }
    // The restored power level is re-integrated by the energy ledger
    // (serialized separately).
    _jobLatencyMs.io(io);
}

} // namespace vip
