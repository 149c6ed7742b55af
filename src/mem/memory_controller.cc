#include "mem/memory_controller.hh"

#include "obs/latency.hh"
#include "obs/stat_registry.hh"
#include "obs/tracer.hh"
#include "sim/state_io.hh"
#include "sim/system.hh"

#include <algorithm>
#include <memory>

namespace vip
{

MemoryController::MemoryController(System &system, std::string name,
                                   const DramConfig &cfg,
                                   EnergyLedger &ledger,
                                   FaultInjector *faults)
    : SimObject(system, std::move(name)),
      _cfg(cfg),
      _channels(cfg.channels),
      _energy(ledger.account("dram", this->name())),
      _faults(faults)
{
    vip_assert(cfg.channels > 0 && (cfg.channels & (cfg.channels - 1)) == 0,
               "channel count must be a power of two");
    for (auto &c : _channels)
        c.banks.resize(cfg.banksPerRank * cfg.ranksPerChannel);
    // Background power is always on while the platform runs.
    _energy.setPower(
        cfg.power.backgroundWattsPerChannel * cfg.channels, 0);
}

std::uint32_t
MemoryController::channelOf(Addr addr) const
{
    return (addr / _cfg.interleaveBytes) & (_cfg.channels - 1);
}

std::uint32_t
MemoryController::bankOf(Addr addr) const
{
    std::uint64_t block = addr / (_cfg.interleaveBytes * _cfg.channels);
    return block % _channels[0].banks.size();
}

std::uint64_t
MemoryController::rowOf(Addr addr) const
{
    return addr / (static_cast<std::uint64_t>(_cfg.rowBytes) *
                   _cfg.channels * _channels[0].banks.size());
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
    _byRequester[req.requesterId] += req.bytes;
    _energy.addDynamicNj(_cfg.power.energyPerByteNj * req.bytes);
    if (!_cfg.ideal)
        _wakePenalty = std::max(_wakePenalty, wakeForAccess());

    if (_cfg.ideal) {
        auto cb = std::move(req.onComplete);
        Tick lat = _cfg.idealLatency;
        _latency.sample(toNs(lat));
        ++_idealInFlight;
        scheduleIn(lat, [this, cb = std::move(cb)] {
            --_idealInFlight;
            if (cb)
                cb();
        }, EventPriority::Default, "dram.burst");
        return;
    }

    // Transactions larger than the interleave granularity stripe
    // across consecutive channels (this is what the interleaving is
    // for); the original completion fires when every stripe is done.
    if (req.bytes > _cfg.interleaveBytes) {
        std::uint32_t stripes =
            (req.bytes + _cfg.interleaveBytes - 1) /
            _cfg.interleaveBytes;
        auto left = std::make_shared<std::uint32_t>(stripes);
        auto cb = std::make_shared<std::function<void()>>(
            std::move(req.onComplete));
        std::uint32_t remaining = req.bytes;
        for (std::uint32_t s = 0; s < stripes; ++s) {
            Pending p;
            p.req.addr = req.addr + static_cast<Addr>(s) *
                         _cfg.interleaveBytes;
            p.req.bytes =
                std::min(remaining, _cfg.interleaveBytes);
            remaining -= p.req.bytes;
            p.req.write = req.write;
            p.req.requesterId = req.requesterId;
            p.req.onComplete = [left, cb] {
                if (--*left == 0 && *cb)
                    (*cb)();
            };
            p.enqueued = curTick();
            std::uint32_t ch = channelOf(p.req.addr);
            ++_burstsAccepted;
            _channels[ch].queue.push_back(std::move(p));
            trySchedule(ch);
        }
        return;
    }

    std::uint32_t ch = channelOf(req.addr);
    ++_burstsAccepted;
    _channels[ch].queue.push_back(Pending{std::move(req), curTick()});
    trySchedule(ch);
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
MemoryController::inFlight() const
{
    std::size_t n = 0;
    for (const auto &c : _channels)
        n += c.queue.size() + (c.busy ? 1 : 0);
    return n;
}

std::size_t
MemoryController::pickNext(const Channel &c, std::uint32_t ch) const
{
    (void)ch;
    // FR-FCFS: oldest row-hit first, else the oldest request.
    for (std::size_t i = 0; i < c.queue.size(); ++i) {
        const auto &p = c.queue[i];
        const Bank &b = c.banks[bankOf(p.req.addr)];
        if (b.open && b.row == rowOf(p.req.addr))
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

    std::size_t idx = pickNext(c, ch);
    Pending p = std::move(c.queue[idx]);
    c.queue.erase(c.queue.begin() + idx);

    Bank &bank = c.banks[bankOf(p.req.addr)];
    std::uint64_t row = rowOf(p.req.addr);

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
    c.bytes += p.req.bytes;
    bank.open = true;
    bank.row = row;

    Tick burst = fromNs(static_cast<double>(p.req.bytes) /
                        _cfg.channelBytesPerNs);
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
    double busyCount = 0;
    for (const auto &cc : _channels)
        busyCount += cc.busy ? 1.0 : 0.0;
    _busyChannels.set(busyCount, curTick());

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
                     static_cast<std::int32_t>(p.req.requesterId),
                     static_cast<double>(p.req.bytes));
    }
    if (LatencyCollector *lc = system().latency())
        lc->recordDramBurst(service);

    Tick enqueue = p.enqueued;
    auto cb = std::move(p.req.onComplete);
    scheduleIn(service, [this, ch, enqueue, cb = std::move(cb)] {
        Channel &cc = _channels[ch];
        cc.busy = false;
        ++_burstsCompleted;
        ++cc.bursts;
        double busy = 0;
        for (const auto &c2 : _channels)
            busy += c2.busy ? 1.0 : 0.0;
        _busyChannels.set(busy, curTick());
        _latency.sample(toNs(curTick() - enqueue));
        if (cb)
            cb();
        trySchedule(ch);
        if (inFlight() == 0)
            onAllIdle();
    }, EventPriority::Default, "dram.burst");
}

std::uint64_t
MemoryController::bytesForRequester(std::uint32_t requester) const
{
    auto it = _byRequester.find(requester);
    return it == _byRequester.end() ? 0 : it->second;
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
    // path bypasses the channels and both counters).
    ctx.checkEq("mem.burst_conservation", _burstsAccepted,
                _burstsCompleted + inFlight(),
                "accepted != completed + queued/busy");
    // Every byte counted at the front door is attributed to exactly
    // one requester.
    std::uint64_t attributed = 0;
    for (const auto &[id, bytes] : _byRequester)
        attributed += bytes;
    ctx.checkEq("mem.byte_attribution", _bytesRead + _bytesWritten,
                attributed, "requester attribution leaks bytes");
    ctx.checkEq("mem.row_accounting", _rowHits + _rowMisses,
                _burstsCompleted + (busyChannelCount()),
                "row decisions != bursts issued");
}

std::size_t
MemoryController::busyChannelCount() const
{
    std::size_t n = 0;
    for (const auto &c : _channels)
        n += c.busy ? 1 : 0;
    return n;
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
    // Unordered per-requester map: digest in sorted-key order so the
    // result is independent of hash iteration order.
    std::vector<std::uint32_t> ids;
    ids.reserve(_byRequester.size());
    for (const auto &[id, bytes] : _byRequester)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::uint32_t id : ids) {
        d.add(id);
        d.add(_byRequester.at(id));
    }
}

void
MemoryController::io(StateIO &io)
{
    vip_assert(io.loading() || quiescent(),
               "checkpointing a memory controller with bursts in "
               "flight");
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

    // Per-requester attribution, in sorted-key order so the snapshot
    // bytes are independent of hash iteration order.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> byRequester;
    if (io.saving()) {
        byRequester.assign(_byRequester.begin(), _byRequester.end());
        std::sort(byRequester.begin(), byRequester.end());
    }
    io.seq32(byRequester, "requesters", [&](auto &req) {
        io.u32(req.first);
        io.u64(req.second);
    });
    if (io.loading())
        _byRequester = {byRequester.begin(), byRequester.end()};

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
