#include "mem/memory_controller.hh"

#include "obs/latency.hh"
#include "obs/stat_registry.hh"
#include "obs/tracer.hh"
#include "sim/state_io.hh"
#include "sim/system.hh"

#include <algorithm>
#include <bit>

namespace vip
{

MemoryController::MemoryController(System &system, std::string name,
                                   const DramConfig &cfg,
                                   EnergyLedger &ledger,
                                   FaultInjector *faults)
    : SimObject(system, std::move(name)),
      _cfg(cfg),
      _bankMask(cfg.banksPerRank * cfg.ranksPerChannel - 1),
      _stripeShift(std::countr_zero(cfg.interleaveBytes)),
      _bankShift(_stripeShift + std::countr_zero(cfg.channels)),
      _rowShift(std::countr_zero(cfg.rowBytes) +
                std::countr_zero(cfg.channels) +
                std::countr_zero(_bankMask + 1)),
      _fullStripeBurst(fromNs(static_cast<double>(cfg.interleaveBytes) /
                              cfg.channelBytesPerNs)),
      _channels(cfg.channels),
      _energy(ledger.account("dram", this->name())),
      _faults(faults),
      _byRequester(kMaxRequesters, 0)
{
    vip_assert(std::has_single_bit(cfg.channels),
               "channel count must be a power of two");
    vip_assert(std::has_single_bit(cfg.interleaveBytes),
               "interleave granularity must be a power of two");
    vip_assert(std::has_single_bit(cfg.rowBytes),
               "row size must be a power of two");
    vip_assert(std::has_single_bit(_bankMask + 1),
               "banks per channel must be a power of two");
    for (auto &c : _channels)
        c.banks.resize(_bankMask + 1);
    // Background power is always on while the platform runs.
    _energy.setPower(
        cfg.power.backgroundWattsPerChannel * cfg.channels, 0);
}

void
MemoryController::startup()
{
    _windowStart = curTick();
    _bwEvent = scheduleIn(_cfg.bwWindow, [this] { sampleBandwidth(); },
                          EventPriority::Stats, "dram.bw");
    armLpTimer();
}

// --------------------------------------------------------------------
// LPDDR low-power state machine
// --------------------------------------------------------------------

void
MemoryController::enterLpState(LpState s)
{
    if (s == _lpState)
        return;
    Tick now = curTick();
    if (_lpState == LpState::PowerDown)
        _powerDownTicks += now - _lpSince;
    else if (_lpState == LpState::SelfRefresh)
        _selfRefreshTicks += now - _lpSince;
    _lpState = s;
    _lpSince = now;

    double base = _cfg.power.backgroundWattsPerChannel * _cfg.channels;
    double watts = base;
    if (s == LpState::PowerDown)
        watts = base * _cfg.power.powerDownFraction;
    else if (s == LpState::SelfRefresh)
        watts = base * _cfg.power.selfRefreshFraction;
    _energy.setPower(watts, now);
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Power)) {
        if (!_obsTrkMem)
            _obsTrkMem = tr->intern(name());
        const char *nm = s == LpState::Active ? "lp:active"
            : (s == LpState::PowerDown ? "lp:power-down"
                                       : "lp:self-refresh");
        tr->instant(TraceCat::Power, _obsTrkMem, tr->intern(nm), now);
    }
    if (s != LpState::Active)
        ++_lpEntries;
    if (s == LpState::SelfRefresh) {
        // Self-refresh loses the open-row state.
        for (auto &c : _channels) {
            for (auto &b : c.banks)
                b.open = false;
        }
    }
}

void
MemoryController::armLpTimer()
{
    if (!_cfg.enableLowPower || _cfg.ideal)
        return;
    if (_lpTimer != InvalidEventId) {
        deschedule(_lpTimer);
        _lpTimer = InvalidEventId;
    }
    if (inFlight() > 0)
        return;
    Tick delay = _lpState == LpState::Active
        ? _cfg.powerDownDelay
        : (_lpState == LpState::PowerDown ? _cfg.selfRefreshDelay
                                          : MaxTick);
    if (delay == MaxTick)
        return; // already in the deepest state
    _lpTimer = scheduleIn(delay, [this] { lpTimerFired(); },
                          EventPriority::Default, "dram.lp");
}

void
MemoryController::lpTimerFired()
{
    _lpTimer = InvalidEventId;
    if (inFlight() > 0)
        return;
    enterLpState(_lpState == LpState::Active ? LpState::PowerDown
                                             : LpState::SelfRefresh);
    armLpTimer();
}

Tick
MemoryController::wakeForAccess()
{
    if (_lpTimer != InvalidEventId) {
        deschedule(_lpTimer);
        _lpTimer = InvalidEventId;
    }
    Tick penalty = 0;
    if (_lpState == LpState::PowerDown)
        penalty = _cfg.tXP;
    else if (_lpState == LpState::SelfRefresh)
        penalty = _cfg.tXS;
    enterLpState(LpState::Active);
    return penalty;
}

void
MemoryController::onAllIdle()
{
    armLpTimer();
}

void
MemoryController::sampleBandwidth()
{
    Tick now = curTick();
    Tick dt = now - _windowStart;
    if (dt > 0) {
        double gbps = static_cast<double>(_windowBytes) /
                      static_cast<double>(dt) * 1000.0;
        double pct = 100.0 * gbps / _cfg.peakGBps();
        _bwHist.sample(std::min(pct, 99.99));
        if (Tracer *tr = system().tracer();
            tr && tr->enabled(TraceCat::Dram)) {
            if (!_obsTrkMem)
                _obsTrkMem = tr->intern(name());
            if (!_obsNmBw)
                _obsNmBw = tr->intern("bw_gbps");
            tr->counter(TraceCat::Dram, _obsTrkMem, _obsNmBw, now,
                        gbps);
        }
    }
    _windowBytes = 0;
    _windowStart = now;
    _bwEvent = scheduleIn(_cfg.bwWindow, [this] { sampleBandwidth(); },
                          EventPriority::Stats, "dram.bw");
}

void
MemoryController::access(MemRequest req)
{
    vip_assert(req.bytes > 0, "zero-byte memory request");
    if (req.write)
        _bytesWritten += req.bytes;
    else
        _bytesRead += req.bytes;
    _windowBytes += req.bytes;
    vip_assert(req.requesterId < kMaxRequesters, "requester id ",
               req.requesterId, " past the traffic ledger");
    _byRequester[req.requesterId] += req.bytes;
    _energy.addDynamicNj(_cfg.power.energyPerByteNj * req.bytes);
    if (!_cfg.ideal)
        _wakePenalty = std::max(_wakePenalty, wakeForAccess());

    // Transactions larger than the interleave granularity stripe
    // across consecutive channels (this is what the interleaving is
    // for); the completion fires when every stripe is done.  Ideal
    // mode delivers the whole transaction as one burst.
    const std::uint32_t stripes = _cfg.ideal
        ? 1
        : (req.bytes + _cfg.interleaveBytes - 1) >> _stripeShift;
    std::uint32_t t;
    if (_txnFree.empty()) {
        t = static_cast<std::uint32_t>(_txns.size());
        _txns.emplace_back();
    } else {
        t = _txnFree.back();
        _txnFree.pop_back();
    }
    _txns[t].onComplete = std::move(req.onComplete);
    _txns[t].left = stripes;

    if (_cfg.ideal) {
        Tick lat = _cfg.idealLatency;
        _latency.sample(toNs(lat));
        ++_idealInFlight;
        scheduleIn(lat, [this, t] {
            --_idealInFlight;
            finishStripe(t);
        }, EventPriority::Default, "dram.burst");
        return;
    }

    std::uint32_t remaining = req.bytes;
    for (std::uint32_t s = 0; s < stripes; ++s) {
        const Addr addr =
            req.addr + static_cast<Addr>(s) * _cfg.interleaveBytes;
        const std::uint32_t bytes =
            std::min(remaining, _cfg.interleaveBytes);
        remaining -= bytes;
        const std::uint32_t ch = channelOf(addr);
        ++_burstsAccepted;
        ++_inFlight;
        _channels[ch].queue.push_back(Pending{bytes, req.requesterId, t,
                                              bankOf(addr), rowOf(addr),
                                              curTick()});
        trySchedule(ch);
    }
}

void
MemoryController::finishStripe(std::uint32_t t)
{
    Txn &txn = _txns[t];
    if (--txn.left != 0)
        return;
    // Free the slot before firing: the completion may issue accesses
    // that reuse it or grow the pool.
    EventCallback cb = std::move(txn.onComplete);
    _txnFree.push_back(t);
    if (cb)
        cb();
}

bool
MemoryController::queueFull(Addr addr) const
{
    if (_cfg.ideal)
        return false;
    const auto &c = _channels[channelOf(addr)];
    return c.queue.size() >= _cfg.queueDepth;
}

std::size_t
MemoryController::pickNext(const Channel &c)
{
    // FR-FCFS: oldest row-hit first, else the oldest request.
    for (std::size_t i = 0; i < c.queue.size(); ++i) {
        const Pending &p = c.queue[i];
        const Bank &b = c.banks[p.bank];
        if (b.open && b.row == p.row)
            return i;
    }
    return 0;
}

void
MemoryController::trySchedule(std::uint32_t ch)
{
    Channel &c = _channels[ch];
    if (c.busy || c.queue.empty())
        return;

    std::size_t idx = pickNext(c);
    const Pending p = c.queue[idx];
    c.queue.erase(c.queue.begin() + idx);

    Bank &bank = c.banks[p.bank];
    const std::uint64_t row = p.row;

    Tick access = _cfg.tCL;
    if (!bank.open) {
        access += _cfg.tRCD;
        ++_rowMisses;
        ++c.rowMisses;
        _energy.addDynamicNj(_cfg.power.activateNj);
    } else if (bank.row != row) {
        access += _cfg.tRP + _cfg.tRCD;
        ++_rowMisses;
        ++c.rowMisses;
        _energy.addDynamicNj(_cfg.power.activateNj);
    } else {
        ++_rowHits;
        ++c.rowHits;
    }
    c.bytes += p.bytes;
    bank.open = true;
    bank.row = row;

    const Tick burst = p.bytes == _cfg.interleaveBytes
        ? _fullStripeBurst
        : fromNs(static_cast<double>(p.bytes) / _cfg.channelBytesPerNs);
    Tick service = access + burst + _wakePenalty;
    _wakePenalty = 0; // exit latency charged once

    if (_faults) {
        switch (_faults->injectEccEvent()) {
          case FaultInjector::EccOutcome::Corrected:
            // Single-bit flip: the controller corrects in-line for a
            // fixed latency adder.
            ++_eccCorrected;
            service += _faults->plan().eccCorrectionLatency;
            break;
          case FaultInjector::EccOutcome::Uncorrected:
            // Detected-uncorrectable: scrub and replay the access
            // (row state is unchanged, so the replay is a row hit).
            ++_eccUncorrected;
            service += _cfg.tCL + burst;
            break;
          case FaultInjector::EccOutcome::None:
            break;
        }
    }

    c.busy = true;
    ++_busyCount;
    _busyChannels.set(_busyCount, curTick());

    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Dram)) {
        if (_obsTrkCh.empty()) {
            _obsTrkCh.resize(_channels.size());
            for (std::size_t i = 0; i < _channels.size(); ++i) {
                _obsTrkCh[i] =
                    tr->intern(name() + ".ch" + std::to_string(i));
            }
            _obsNmBurst = tr->intern("burst");
        }
        // The requester id rides in the lane slot (no lanes in DRAM).
        tr->complete(TraceCat::Dram, _obsTrkCh[ch], _obsNmBurst,
                     curTick(), curTick() + service, -1, -1,
                     static_cast<std::int32_t>(p.requesterId),
                     static_cast<double>(p.bytes));
    }
    if (LatencyCollector *lc = system().latency())
        lc->recordDramBurst(service);

    scheduleIn(service, [this, ch, enqueue = p.enqueued, txn = p.txn] {
        Channel &cc = _channels[ch];
        cc.busy = false;
        --_busyCount;
        --_inFlight;
        ++_burstsCompleted;
        ++cc.bursts;
        _busyChannels.set(_busyCount, curTick());
        _latency.sample(toNs(curTick() - enqueue));
        finishStripe(txn);
        trySchedule(ch);
        if (_inFlight == 0)
            onAllIdle();
    }, EventPriority::Default, "dram.burst");
}

double
MemoryController::averageBandwidthGBps() const
{
    Tick now = curTick();
    if (now == 0)
        return 0.0;
    return static_cast<double>(_bytesRead + _bytesWritten) /
           static_cast<double>(now) * 1000.0;
}

double
MemoryController::fractionOfTimeAbove(double fraction) const
{
    if (_bwHist.total() == 0)
        return 0.0;
    double pct = fraction * 100.0;
    std::uint64_t above = 0;
    for (std::size_t i = 0; i < _bwHist.numBins(); ++i) {
        if (_bwHist.binLo(i) >= pct)
            above += _bwHist.binCount(i);
    }
    return static_cast<double>(above) /
           static_cast<double>(_bwHist.total());
}

void
MemoryController::finalize()
{
    Tick now = curTick();
    if (_lpState == LpState::PowerDown)
        _powerDownTicks += now - _lpSince;
    else if (_lpState == LpState::SelfRefresh)
        _selfRefreshTicks += now - _lpSince;
    _lpSince = now;
    _busyChannels.close(now);
    _energy.close(now);
}

void
MemoryController::registerStats(StatRegistry &r)
{
    r.addExact("dram.bytes_read", "bytes read from DRAM", "bytes",
               [this] { return double(_bytesRead); });
    r.addExact("dram.bytes_written", "bytes written to DRAM", "bytes",
               [this] { return double(_bytesWritten); });
    r.addExact("dram.row_hits", "row-buffer hits", "bursts",
               [this] { return double(_rowHits); });
    r.addExact("dram.row_misses", "row-buffer misses", "bursts",
               [this] { return double(_rowMisses); });
    r.addExact("dram.ecc_corrected", "bursts with a corrected ECC "
               "error", "bursts",
               [this] { return double(_eccCorrected); });
    r.addExact("dram.ecc_uncorrected", "bursts replayed for "
               "uncorrectable ECC", "bursts",
               [this] { return double(_eccUncorrected); });
    r.addExact("dram.bursts_accepted", "bursts accepted into channel "
               "queues", "bursts",
               [this] { return double(_burstsAccepted); });
    r.addExact("dram.bursts_completed", "bursts serviced to "
               "completion", "bursts",
               [this] { return double(_burstsCompleted); });
    r.addExact("dram.lp_entries", "low-power state entries", "",
               [this] { return double(_lpEntries); });
    r.addTiming("dram.avg_bw_gbps", "average observed bandwidth",
                "GB/s", [this] { return averageBandwidthGBps(); });
    r.addTiming("dram.powerdown_ms", "time in power-down", "ms",
                [this] { return toMs(_powerDownTicks); });
    r.addTiming("dram.selfrefresh_ms", "time in self-refresh", "ms",
                [this] { return toMs(_selfRefreshTicks); });
    r.addAccumulator("dram.latency_ns", "service latency (ns)", "ns",
                     _latency);
    r.addTimeWeighted("dram.busy_channels", "busy channels over time",
                      "channels", _busyChannels);
    for (std::size_t i = 0; i < _channels.size(); ++i) {
        const Channel *c = &_channels[i];
        std::string p = "dram.ch" + std::to_string(i);
        r.addExact(p + ".row_hits", "row-buffer hits", "bursts",
                   [c] { return double(c->rowHits); });
        r.addExact(p + ".row_misses", "row-buffer misses", "bursts",
                   [c] { return double(c->rowMisses); });
        r.addExact(p + ".bursts", "bursts serviced", "bursts",
                   [c] { return double(c->bursts); });
        r.addExact(p + ".bytes", "payload bytes serviced", "bytes",
                   [c] { return double(c->bytes); });
    }
}

void
MemoryController::auditInvariants(AuditContext &ctx) const
{
    // Burst conservation through the channel queues (the ideal-memory
    // path bypasses the channels and both counters), walked rather
    // than read from the O(1) books, which are checked against it.
    std::uint64_t busy = 0;
    std::uint64_t walked = 0;
    for (const auto &c : _channels) {
        busy += c.busy ? 1 : 0;
        walked += c.queue.size() + (c.busy ? 1 : 0);
    }
    ctx.checkEq("mem.burst_conservation", _burstsAccepted,
                _burstsCompleted + walked,
                "accepted != completed + queued/busy");
    ctx.checkEq("mem.inflight_count", _inFlight, walked,
                "in-flight counter != queued + busy walk");
    // Every queued, busy or ideal-mode burst holds one stripe of a
    // live pooled transaction; free slots hold none.
    std::uint64_t left = 0;
    for (const Txn &txn : _txns)
        left += txn.left;
    ctx.checkEq("mem.txn_bursts", left, walked + _idealInFlight,
                "pooled stripes != queued/busy + ideal bursts");
    // Every byte counted at the front door is attributed to exactly
    // one requester.
    std::uint64_t attributed = 0;
    for (std::uint64_t bytes : _byRequester)
        attributed += bytes;
    ctx.checkEq("mem.byte_attribution", _bytesRead + _bytesWritten,
                attributed, "requester attribution leaks bytes");
    ctx.checkEq("mem.row_accounting", _rowHits + _rowMisses,
                _burstsCompleted + busy,
                "row decisions != bursts issued");
}

void
MemoryController::stateDigest(StateDigest &d) const
{
    d.add(name());
    d.add(_bytesRead);
    d.add(_bytesWritten);
    d.add(_rowHits);
    d.add(_rowMisses);
    d.add(_eccCorrected);
    d.add(_eccUncorrected);
    d.add(_burstsAccepted);
    d.add(_burstsCompleted);
    d.add(static_cast<std::uint64_t>(_lpState));
    d.add(_lpEntries);
    d.add(static_cast<std::uint64_t>(_powerDownTicks));
    d.add(static_cast<std::uint64_t>(_selfRefreshTicks));
    for (const auto &c : _channels) {
        d.add(c.busy);
        d.add(static_cast<std::uint64_t>(c.queue.size()));
    }
    // Requesters that moved bytes, in id order.
    for (std::uint32_t id = 0; id < kMaxRequesters; ++id) {
        if (_byRequester[id] != 0) {
            d.add(id);
            d.add(_byRequester[id]);
        }
    }
}

void
MemoryController::io(StateIO &io)
{
    vip_assert(io.loading() || quiescent(),
               "checkpointing a memory controller with bursts in "
               "flight");
    // The completion pool is not serialized: no slot is live here.
    vip_assert(io.loading() || _txnFree.size() == _txns.size(),
               "checkpointing a memory controller with pooled "
               "completions");
    io.u64(_windowBytes);
    io.tick(_windowStart);
    io.u64(_bytesRead);
    io.u64(_bytesWritten);
    io.u64(_rowHits);
    io.u64(_rowMisses);
    io.u64(_eccCorrected);
    io.u64(_eccUncorrected);
    io.u64(_burstsAccepted);
    io.u64(_burstsCompleted);
    io.tick(_wakePenalty);

    // Per-requester attribution: (id, bytes) for the requesters that
    // moved bytes, in id order.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> byRequester;
    if (io.saving()) {
        for (std::uint32_t id = 0; id < kMaxRequesters; ++id) {
            if (_byRequester[id] != 0)
                byRequester.emplace_back(id, _byRequester[id]);
        }
    }
    io.seq32(byRequester, "requesters", [&](auto &req) {
        io.u32(req.first);
        io.u64(req.second);
    });
    if (io.loading()) {
        std::fill(_byRequester.begin(), _byRequester.end(), 0);
        for (const auto &[id, bytes] : byRequester) {
            if (id >= kMaxRequesters) {
                fatal("snapshot: ", name(), " requester id ", id,
                      " past the traffic ledger (", kMaxRequesters,
                      " ids)");
            }
            _byRequester[id] = bytes;
        }
    }

    // Per-channel open-row state and accounting.  Queues are empty
    // and no channel is busy at a quiescent point.
    io.shape(name(), "channels", _channels.size());
    for (auto &c : _channels) {
        vip_assert(io.loading() || (c.queue.empty() && !c.busy),
                   "channel not idle at checkpoint");
        io.shape(name(), "banks/channel", c.banks.size());
        for (auto &b : c.banks) {
            io.b(b.open);
            io.u64(b.row);
        }
        io.u64(c.rowHits);
        io.u64(c.rowMisses);
        io.u64(c.bursts);
        io.u64(c.bytes);
    }

    // Low-power state machine and bandwidth sampler.  The restored
    // power level is re-integrated by the energy ledger (serialized
    // separately).
    io.u8(_lpState);
    io.tick(_lpSince);
    io.tick(_powerDownTicks);
    io.tick(_selfRefreshTicks);
    io.u64(_lpEntries);
    io.event(_lpTimer, [this] { lpTimerFired(); },
             EventPriority::Default, "dram.lp");
    io.event(_bwEvent, [this] { sampleBandwidth(); },
             EventPriority::Stats, "dram.bw");

    _latency.io(io);
    _bwHist.io(io);
    _busyChannels.io(io);
}

} // namespace vip
