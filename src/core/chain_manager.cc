#include "core/chain_manager.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/state_io.hh"

namespace vip
{

ChainId
ChainManager::create(FlowId flow, std::vector<IpCore *> ips,
                     std::vector<std::uint64_t> nominal_edges,
                     IpCore::FrameExitFn on_exit,
                     IpCore::FrameStartFn on_start)
{
    vip_assert(!ips.empty(), "chain needs at least one IP");
    vip_assert(ips.size() == nominal_edges.size(),
               "edges/stages size mismatch");
    for (std::size_t i = 0; i < ips.size(); ++i) {
        for (std::size_t j = i + 1; j < ips.size(); ++j) {
            if (ips[i] == ips[j])
                fatal("chain visits IP ", ips[i]->name(), " twice");
        }
    }

    Chain c;
    c.flow = flow;
    c.ips = std::move(ips);
    c.nominalEdges = std::move(nominal_edges);
    c.onExit = std::move(on_exit);
    c.onStart = std::move(on_start);
    c.lanes.assign(c.ips.size(), -1);
    c.sourceGenerated = ipIsSource(c.ips.front()->kind());
    _chains.push_back(std::move(c));
    return static_cast<ChainId>(_chains.size() - 1);
}

bool
ChainManager::tryBind(Chain &c)
{
    vip_assert(!c.isBound, "double bind");
    // All-or-nothing: check availability first so a partial failure
    // never holds lanes (which could deadlock crossing chains).
    for (auto *ip : c.ips) {
        if (ip->boundLanes() >= ip->numLanes())
            return false;
    }
    const std::size_t n = c.ips.size();
    for (std::size_t i = 0; i < n; ++i) {
        int lane = c.ips[i]->bindLane(c.flow);
        vip_assert(lane >= 0, "lane vanished between check and bind");
        c.lanes[i] = lane;
    }
    for (std::size_t i = 0; i + 1 < n; ++i)
        c.ips[i]->connectLane(c.lanes[i], c.ips[i + 1], c.lanes[i + 1]);
    c.ips[n - 1]->makeLaneSink(c.lanes[n - 1], c.onExit);
    if (c.onStart)
        c.ips[0]->setLaneFrameStartCb(c.lanes[0], c.onStart);
    c.isBound = true;
    return true;
}

void
ChainManager::unbind(Chain &c)
{
    vip_assert(c.isBound, "unbinding unbound chain");
    for (std::size_t i = 0; i < c.ips.size(); ++i) {
        c.ips[i]->unbindLane(c.lanes[i]);
        c.lanes[i] = -1;
    }
    c.isBound = false;
}

bool
ChainManager::bindPersistent(ChainId id)
{
    Chain &c = _chains.at(id);
    if (!tryBind(c))
        return false;
    c.persistent = true;
    return true;
}

bool
ChainManager::overlapsWaiter(const Chain &c) const
{
    for (const auto &[wid, g] : _waiters) {
        const Chain &w = _chains.at(wid);
        for (auto *ip : c.ips) {
            for (auto *wip : w.ips) {
                if (ip == wip)
                    return true;
            }
        }
    }
    return false;
}

void
ChainManager::acquire(ChainId id, Granted granted)
{
    Chain &c = _chains.at(id);
    vip_assert(!c.persistent, "acquire on a persistent chain");
    // Grant immediately only when the chain is free AND no earlier
    // waiter contends for any of its IPs (bounded unfairness).
    if (!c.isBound && !overlapsWaiter(c) && tryBind(c)) {
        granted();
        return;
    }
    _waiters.emplace_back(id, std::move(granted));
}

void
ChainManager::release(ChainId id)
{
    Chain &c = _chains.at(id);
    vip_assert(!c.persistent, "release on a persistent chain");
    unbind(c);
    retryWaiters();
}

void
ChainManager::close(ChainId id)
{
    Chain &c = _chains.at(id);
    if (c.isBound)
        unbind(c);
    c.persistent = false;
    retryWaiters();
}

void
ChainManager::retryWaiters()
{
    // FIFO with passing: scan in arrival order and admit every waiter
    // whose whole chain can bind.  Waiters on still-busy IPs keep
    // their queue position, so same-resource requesters stay FIFO
    // while disjoint chains never block each other.
    std::vector<Granted> admitted;
    for (auto it = _waiters.begin(); it != _waiters.end();) {
        Chain &c = _chains.at(it->first);
        if (!c.isBound && tryBind(c)) {
            admitted.push_back(std::move(it->second));
            it = _waiters.erase(it);
        } else {
            ++it;
        }
    }
    for (auto &g : admitted)
        g();
}

void
ChainManager::feed(ChainId id, std::uint64_t frame_id,
                   const std::vector<std::uint64_t> &edges, Addr addr,
                   Tick deadline, Tick gen_span, bool txn_end)
{
    Chain &c = _chains.at(id);
    vip_assert(c.isBound, "feeding an unbound chain");
    vip_assert(edges.size() == c.ips.size(), "edge vector mismatch");

    // Distribute the per-frame context (header packet contents) to
    // every stage: per-stage input/output bytes, deadline, and the
    // transaction boundary; then stream the data in at the head.
    const std::size_t n = c.ips.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t out = i + 1 < n ? edges[i + 1] : 0;
        c.ips[i]->announceFrame(c.lanes[i], frame_id, edges[i], out,
                                deadline, txn_end);
    }
    c.ips[0]->feedFrame(c.lanes[0], frame_id, edges[0], addr,
                        c.sourceGenerated, gen_span);
}

// --------------------------------------------------------------------
// Admission control
// --------------------------------------------------------------------

double
ChainManager::stageDemand(const IpCore &ip, std::uint64_t in_bytes,
                          std::uint64_t out_bytes, double fps)
{
    const IpParams &p = ip.params();
    double cap = p.clockHz * p.bytesPerCycle; // engine bytes/second
    if (cap <= 0.0)
        return 1.0;
    double work = static_cast<double>(
        std::max<std::uint64_t>({in_bytes, out_bytes, 1}));
    return fps * work / cap;
}

AdmissionCheck
ChainManager::checkAdmission(const std::vector<IpCore *> &ips,
                             const std::vector<std::uint64_t> &edges,
                             double fps, double headroom) const
{
    vip_assert(ips.size() == edges.size(),
               "admission edge/stage mismatch");
    AdmissionCheck r;
    const double limit = 1.0 - headroom;
    for (std::size_t i = 0; i < ips.size(); ++i) {
        std::uint64_t out = i + 1 < ips.size() ? edges[i + 1] : 0;
        double load = ipLoad(ips[i]) +
                      stageDemand(*ips[i], edges[i], out, fps);
        if (load > r.worstLoad) {
            r.worstLoad = load;
            r.bottleneck = ips[i];
        }
        // Tolerate fp rounding right at the boundary.
        if (load > limit * (1.0 + 1e-12))
            r.feasible = false;
    }
    return r;
}

void
ChainManager::recordAdmission(const std::vector<IpCore *> &ips,
                              const std::vector<std::uint64_t> &edges,
                              double fps)
{
    vip_assert(ips.size() == edges.size(),
               "admission edge/stage mismatch");
    for (std::size_t i = 0; i < ips.size(); ++i) {
        std::uint64_t out = i + 1 < ips.size() ? edges[i + 1] : 0;
        _ipLoad[ips[i]] += stageDemand(*ips[i], edges[i], out, fps);
    }
}

void
ChainManager::releaseAdmission(const std::vector<IpCore *> &ips,
                               const std::vector<std::uint64_t> &edges,
                               double fps)
{
    vip_assert(ips.size() == edges.size(),
               "admission edge/stage mismatch");
    for (std::size_t i = 0; i < ips.size(); ++i) {
        std::uint64_t out = i + 1 < ips.size() ? edges[i + 1] : 0;
        auto it = _ipLoad.find(ips[i]);
        vip_assert(it != _ipLoad.end(),
                   "admission refund for unknown IP");
        it->second -= stageDemand(*ips[i], edges[i], out, fps);
        if (it->second < 1e-12)
            it->second = 0.0;
    }
}

double
ChainManager::ipLoad(const IpCore *ip) const
{
    auto it = _ipLoad.find(ip);
    return it == _ipLoad.end() ? 0.0 : it->second;
}

bool
ChainManager::bound(ChainId id) const
{
    return _chains.at(id).isBound;
}

const std::vector<IpCore *> &
ChainManager::stages(ChainId id) const
{
    return _chains.at(id).ips;
}

void
ChainManager::auditInvariants(AuditContext &ctx) const
{
    for (std::size_t i = 0; i < _chains.size(); ++i) {
        const Chain &c = _chains[i];
        std::string which = "chain " + std::to_string(i);
        if (c.isBound) {
            ctx.checkEq("chain.bound_lanes", c.lanes.size(),
                        c.ips.size(), which);
            for (int lane : c.lanes) {
                ctx.checkTrue("chain.lane_valid", lane >= 0,
                              which + " bound with an invalid lane");
            }
        } else {
            // unbind() resets every slot to -1 but keeps the vector
            // sized to the stage count.
            for (int lane : c.lanes) {
                ctx.checkTrue("chain.unbound_lanes", lane == -1,
                              which + " holds a lane while unbound");
            }
        }
    }
    for (const auto &[id, granted] : _waiters) {
        ctx.checkTrue("chain.waiter_valid", id < _chains.size(),
                      "waiter references unknown chain");
    }
    // The admission ledger never goes negative (releases are clamped
    // at zero only against rounding noise).
    for (const auto &[ip, load] : _ipLoad) {
        ctx.checkTrue("chain.load_nonnegative", load >= 0.0,
                      "negative admission demand on " + ip->name());
    }
}

void
ChainManager::stateDigest(StateDigest &d) const
{
    d.add(static_cast<std::uint64_t>(_chains.size()));
    for (const Chain &c : _chains) {
        d.add(static_cast<std::uint64_t>(c.flow));
        d.add(c.isBound);
        d.add(c.persistent);
        d.add(static_cast<std::uint64_t>(c.lanes.size()));
        for (int lane : c.lanes)
            d.add(static_cast<std::int64_t>(lane));
    }
    d.add(static_cast<std::uint64_t>(_waiters.size()));
    for (const auto &[name, load] : loadsByName()) {
        d.add(name);
        d.add(load);
    }
}

std::vector<std::pair<std::string, double>>
ChainManager::loadsByName() const
{
    std::vector<std::pair<std::string, double>> loads;
    loads.reserve(_ipLoad.size());
    for (const auto &[ip, load] : _ipLoad)
        loads.emplace_back(ip->name(), load);
    std::sort(loads.begin(), loads.end());
    return loads;
}

void
ChainManager::io(StateIO &io,
                 const std::function<ChainId(FlowId)> &recreate,
                 const std::function<IpCore *(const std::string &)>
                     &ip_by_name)
{
    if (io.saving())
        vip_assert(_waiters.empty(),
                   "checkpointing with chain acquisitions queued");
    else
        vip_assert(_chains.empty(),
                   "restoring into a non-empty chain manager");
    const std::size_t nChains = io.seq32(_chains.size(), "chains");
    for (std::size_t i = 0; i < nChains; ++i) {
        // On load the chain does not exist until its flow re-creates
        // it, so its identity goes through locals.
        FlowId flow = io.saving() ? _chains[i].flow : 0;
        bool isBound = io.saving() && _chains[i].isBound;
        bool persistent = io.saving() && _chains[i].persistent;
        io.u64(flow);
        io.b(isBound);
        io.b(persistent);
        if (io.loading()) {
            ChainId id = recreate(flow);
            if (id != i)
                fatal("chain restore out of order: flow ", flow,
                      " recreated chain ", id, ", snapshot expects ", i);
        }
        Chain &c = _chains.at(i);
        io.shape("chain " + std::to_string(i), "stages", c.lanes.size());
        for (int &lane : c.lanes)
            io.i64(lane);
        if (io.saving())
            continue;
        c.isBound = isBound;
        c.persistent = persistent;
        if (!c.isBound)
            continue;
        // Rewire the stages exactly as tryBind() did, against the
        // lane bindings the IPs restored in their own sections.
        const std::size_t n = c.ips.size();
        for (std::size_t s = 0; s + 1 < n; ++s) {
            c.ips[s]->connectLane(c.lanes[s], c.ips[s + 1],
                                  c.lanes[s + 1]);
        }
        c.ips[n - 1]->makeLaneSink(c.lanes[n - 1], c.onExit);
        if (c.onStart)
            c.ips[0]->setLaneFrameStartCb(c.lanes[0], c.onStart);
    }
    // The admission ledger accumulates doubles in call order, so the
    // values are not reproducible by replaying recordAdmission();
    // store the exact bits keyed by IP name, sorted for stability.
    std::vector<std::pair<std::string, double>> loads;
    if (io.saving())
        loads = loadsByName();
    io.seq32(loads, "admission loads", [&](auto &load) {
        io.str(load.first);
        io.d(load.second);
    });
    if (io.saving())
        return;
    for (const auto &[name, load] : loads) {
        IpCore *ip = ip_by_name(name);
        if (!ip)
            fatal("admission ledger references unknown IP '", name,
                  "' (config mismatch)");
        _ipLoad[ip] = load;
    }
}

} // namespace vip
