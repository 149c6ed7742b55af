#include "sa/system_agent.hh"

#include <algorithm>

#include "obs/latency.hh"
#include "obs/stat_registry.hh"
#include "obs/tracer.hh"
#include "sim/state_io.hh"
#include "sim/system.hh"

namespace vip
{

SystemAgent::SystemAgent(System &system, std::string name,
                         const SaConfig &cfg, MemoryController &mem,
                         EnergyLedger &ledger, FaultInjector *faults)
    : SimObject(system, std::move(name)),
      _cfg(cfg),
      _mem(mem),
      _energy(ledger.account("sa", this->name())),
      _faults(faults)
{
    vip_assert(cfg.bytesPerNs > 0.0, "SA bandwidth must be positive");
    _energy.setPower(cfg.power.staticWatts, 0);
}

Tick
SystemAgent::occupy(std::uint32_t bytes)
{
    Tick now = curTick();
    Tick start = std::max(now, _busyUntil);
    Tick duration =
        fromNs(static_cast<double>(bytes) / _cfg.bytesPerNs);
    _busyUntil = start + duration;
    _busyTicks += duration;
    _bytesMoved += bytes;
    _energy.addDynamicNj(_cfg.power.energyPerByteNj * bytes);
    return _busyUntil + _cfg.hopLatency;
}

void
SystemAgent::transferAttempt(std::uint32_t bytes, Callback done,
                             std::uint32_t attempt)
{
    if (attempt == 0) {
        _bytesAccepted += bytes;
        _bytesInFlight += bytes;
    } else {
        _bytesRetransmitted += bytes;
    }
    Tick ob_start = std::max(curTick(), _busyUntil);
    Tick delivered = occupy(bytes);
    // The link-serialization window is [ob_start, _busyUntil]; the
    // hop latency after it is propagation, not occupancy.
    Tick ob_end = delivered - _cfg.hopLatency;
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Sa)) {
        if (!_obsTrkLink) {
            _obsTrkLink = tr->intern(name() + ".link");
            _obsNmXfer = tr->intern("xfer");
            _obsNmRetx = tr->intern("retransmit");
        }
        tr->complete(TraceCat::Sa, _obsTrkLink,
                     attempt == 0 ? _obsNmXfer : _obsNmRetx,
                     ob_start, ob_end, -1, -1, -1,
                     static_cast<double>(bytes));
    }
    if (LatencyCollector *lc = system().latency())
        lc->recordSaTransfer(ob_end > ob_start ? ob_end - ob_start : 0);
    schedule(delivered,
             [this, bytes, done = std::move(done), attempt]() mutable {
        // CRC over the payload is checked at the receiving end; a bad
        // transfer is retransmitted (serializing on the link again)
        // until the retry budget runs out, after which the payload is
        // passed along anyway -- the damage then surfaces as a
        // sub-frame corruption at the consuming IP.
        if (_faults &&
            attempt < _faults->plan().maxTransferRetries &&
            _faults->injectTransferError()) {
            ++_xferRetries;
            _faults->noteTransferRetry();
            transferAttempt(bytes, std::move(done), attempt + 1);
            return;
        }
        _bytesDelivered += bytes;
        vip_assert(_bytesInFlight >= bytes,
                   "SA byte ledger underflow on ", name());
        _bytesInFlight -= bytes;
        done();
    }, EventPriority::Default, "sa.transfer");
}

void
SystemAgent::memoryAccess(MemRequest req)
{
    std::uint32_t slot;
    if (_parkedFree.empty()) {
        slot = static_cast<std::uint32_t>(_parked.size());
        _parked.push_back(std::move(req));
    } else {
        slot = _parkedFree.back();
        _parkedFree.pop_back();
        _parked[slot] = std::move(req);
    }
    // [this, slot] fits std::function's inline buffer; CRC retries
    // re-send the same slot.
    transferAttempt(_parked[slot].bytes, [this, slot] {
        MemRequest r = std::move(_parked[slot]);
        _parked[slot].bytes = 0;
        _parkedFree.push_back(slot);
        _mem.access(std::move(r));
    }, 0);
}

void
SystemAgent::peerTransfer(std::uint32_t bytes, Callback on_delivered)
{
    _peerBytes += bytes;
    transferAttempt(bytes, std::move(on_delivered), 0);
}

void
SystemAgent::signal(Callback on_delivered)
{
    ++_signals;
    ++_signalsInFlight;
    scheduleIn(_cfg.signalLatency,
               [this, cb = std::move(on_delivered)] {
        --_signalsInFlight;
        cb();
    }, EventPriority::Default, "sa.signal");
}

double
SystemAgent::utilization() const
{
    Tick now = curTick();
    if (now == 0)
        return 0.0;
    Tick busy = std::min(_busyTicks, now);
    return static_cast<double>(busy) / static_cast<double>(now);
}

void
SystemAgent::finalize()
{
    _energy.close(curTick());
}

void
SystemAgent::registerStats(StatRegistry &r)
{
    r.addExact("sa.bytes_moved", "payload bytes serialized on the "
               "link (incl. retransmissions)", "bytes",
               [this] { return double(_bytesMoved); });
    r.addExact("sa.bytes_forwarded", "IP-to-IP peer-transfer bytes",
               "bytes", [this] { return double(_peerBytes); });
    r.addExact("sa.bytes_accepted", "payload bytes handed to the SA",
               "bytes", [this] { return double(_bytesAccepted); });
    r.addExact("sa.bytes_delivered", "payload bytes delivered",
               "bytes", [this] { return double(_bytesDelivered); });
    r.addExact("sa.bytes_retransmitted", "bytes re-serialized by CRC "
               "retransmissions", "bytes",
               [this] { return double(_bytesRetransmitted); });
    r.addExact("sa.signals", "low-bandwidth signals delivered", "",
               [this] { return double(_signals); });
    r.addExact("sa.transfer_retries", "CRC-failed crossings "
               "retransmitted", "",
               [this] { return double(_xferRetries); });
    r.addTiming("sa.busy_ms", "link-busy time", "ms",
                [this] { return toMs(_busyTicks); });
    r.addTiming("sa.utilization", "fraction of time the link was "
                "busy", "ratio", [this] { return utilization(); });
}

void
SystemAgent::auditInvariants(AuditContext &ctx) const
{
    // Payload conservation across the link.
    ctx.checkEq("sa.byte_conservation", _bytesAccepted,
                _bytesDelivered + _bytesInFlight,
                "accepted != delivered + in flight");
    // Every byte charged to the link is a first attempt or a
    // retransmission -- nothing moves uncounted.
    ctx.checkEq("sa.link_accounting", _bytesMoved,
                _bytesAccepted + _bytesRetransmitted,
                "link bytes != accepted + retransmitted");
    ctx.checkLe("sa.peer_subset", _peerBytes, _bytesAccepted,
                "peer bytes exceed total accepted");
    // Parked DRAM requests are on the link; free slots hold 0 bytes.
    std::uint64_t parked = 0;
    for (const MemRequest &r : _parked)
        parked += r.bytes;
    ctx.checkLe("sa.parked_bytes", parked, _bytesInFlight,
                "parked request bytes exceed bytes in flight");
}

void
SystemAgent::stateDigest(StateDigest &d) const
{
    d.add(name());
    d.add(static_cast<std::uint64_t>(_busyUntil));
    d.add(static_cast<std::uint64_t>(_busyTicks));
    d.add(_bytesMoved);
    d.add(_peerBytes);
    d.add(_signals);
    d.add(_xferRetries);
    d.add(_bytesAccepted);
    d.add(_bytesDelivered);
    d.add(_bytesInFlight);
    d.add(_bytesRetransmitted);
}

void
SystemAgent::io(StateIO &io)
{
    vip_assert(io.loading() || quiescent(),
               "checkpointing the SA with payload or signals in "
               "flight");
    // The parking pool is not serialized: no slot is live here.
    vip_assert(io.loading() || _parkedFree.size() == _parked.size(),
               "checkpointing the SA with parked requests");
    io.tick(_busyUntil);
    io.tick(_busyTicks);
    io.u64(_bytesMoved);
    io.u64(_peerBytes);
    io.u64(_signals);
    io.u64(_xferRetries);
    io.u64(_bytesAccepted);
    io.u64(_bytesDelivered);
    io.u64(_bytesInFlight);
    io.u64(_bytesRetransmitted);
}

} // namespace vip
