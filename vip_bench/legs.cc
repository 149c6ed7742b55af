/**
 * @file
 * Fixed-work layer legs: each drives one src/ module through its public
 * API with the same input on every run and every seed, so a change to
 * that module shows here even when end-to-end noise hides it.
 */

#include <vector>

#include "cpu/cpu_cluster.hh"
#include "ip/ip_core.hh"
#include "mem/memory_controller.hh"
#include "ops.hh"
#include "sa/system_agent.hh"
#include "sim/system.hh"

namespace vipbench
{

using namespace vip;

namespace
{

constexpr int kEvents = 4096;
constexpr int kRequests = 512;
constexpr std::uint32_t kRequestBytes = 1024;

/** Service events until @p done(); the component's periodic timers
 *  keep the queue non-empty, so a lost completion is a wedge. */
template <typename Done>
void
drain(System &sys, Done done)
{
    while (!done()) {
        if (!sys.eventq().serviceOne() || sys.curTick() > fromSec(1))
            fatal("layer leg never completed its batch");
    }
}

/** The fastest decile of @p batches runs of @p leg: the batches follow
 *  each other within milliseconds, so this drops interrupts and page
 *  faults, not host states. */
template <typename Leg>
double
fastOf(int batches, Leg leg)
{
    std::vector<double> v;
    for (int i = 0; i < batches; ++i)
        v.push_back(leg());
    return percentile(v, 0.1);
}

/** Event kernel: kEvents events at distinct spread ticks, serviced;
 *  with @p cancelHalf every other one is descheduled first. */
double
kernelLeg(bool cancelHalf)
{
    EventQueue eq;
    std::vector<EventId> ids(kEvents);
    std::uint64_t fired = 0;
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kEvents; ++i) {
        ids[i] = eq.schedule(Tick((i * 37) % kEvents) * 1000,
                             [&fired] { ++fired; });
    }
    if (cancelHalf) {
        for (int i = 1; i < kEvents; i += 2)
            eq.deschedule(ids[i]);
    }
    eq.run();
    const std::int64_t t1 = nowNs();
    if (fired != std::uint64_t(cancelHalf ? kEvents / 2 : kEvents))
        fatal("kernel leg serviced ", fired, " events");
    return double(t1 - t0) / kEvents;
}

/** DRAM: kRequests 1 KB reads, either all inside one row per bank
 *  (row hits) or each in a random row (row misses). */
double
memLeg(bool rowHits)
{
    System sys(1);
    EnergyLedger ledger;
    const DramConfig dc;
    MemoryController mem(sys, "leg.mem", dc, ledger);
    const Addr rowSpan = Addr(dc.rowBytes) * dc.channels *
                         dc.ranksPerChannel * dc.banksPerRank;
    const Addr perRow = rowSpan / kRequestBytes;
    std::vector<Addr> addrs(kRequests);
    std::uint64_t lcg = 12345;
    for (int i = 0; i < kRequests; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const Addr row = rowHits ? 0 : 1 + (lcg >> 40) % 8191;
        addrs[i] = row * rowSpan + (i % perRow) * kRequestBytes;
    }
    sys.run(0);
    int done = 0;
    const std::int64_t t0 = nowNs();
    for (Addr a : addrs) {
        MemRequest req;
        req.addr = a;
        req.bytes = kRequestBytes;
        req.onComplete = [&done] { ++done; };
        mem.access(std::move(req));
    }
    drain(sys, [&] { return done == kRequests; });
    const std::int64_t t1 = nowNs();
    const double hitRate =
        double(mem.rowHits()) / double(mem.rowHits() + mem.rowMisses());
    if (rowHits ? hitRate < 0.9 : hitRate > 0.1)
        fatal("memory leg row-hit rate ", hitRate, " misses its premise");
    return double(t1 - t0) / kRequests;
}

/** System Agent: kRequests of one operation, issued by @p issue. */
template <typename Issue>
double
saLeg(Issue issue)
{
    System sys(1);
    EnergyLedger ledger;
    MemoryController mem(sys, "leg.mem", DramConfig{}, ledger);
    SystemAgent sa(sys, "leg.sa", SaConfig{}, mem, ledger);
    sys.run(0);
    int done = 0;
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kRequests; ++i)
        issue(sa, i, [&done] { ++done; });
    drain(sys, [&] { return done == kRequests; });
    return double(nowNs() - t0) / kRequests;
}

/** CPU cluster: kRequests short tasks, as tasks or as interrupts. */
double
cpuLeg(bool interrupts)
{
    System sys(1);
    EnergyLedger ledger;
    CpuCluster cpus(sys, "leg.cpu", CpuConfig{}, 4, ledger);
    sys.run(0);
    int done = 0;
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kRequests; ++i) {
        CpuTask t;
        t.instructions = 2000;
        t.onComplete = [&done] { ++done; };
        if (interrupts)
            cpus.interrupt(std::move(t));
        else
            cpus.dispatch(std::move(t));
    }
    drain(sys, [&] { return done == kRequests; });
    return double(nowNs() - t0) / kRequests;
}

/** IP stream engine: one @p bytes frame through a two-IP chain over
 *  ideal DRAM; ns per KB streamed. */
double
streamLeg(std::uint64_t bytes)
{
    System sys(1);
    EnergyLedger ledger;
    DramConfig dc;
    dc.ideal = true;
    MemoryController mem(sys, "leg.mem", dc, ledger);
    SystemAgent sa(sys, "leg.sa", SaConfig{}, mem, ledger);
    IpParams p = defaultIpParams(IpKind::VD);
    p.clockHz = 1e9;
    p.bytesPerCycle = 4.0;
    IpCore prod(sys, "leg.prod", p, sa, ledger);
    IpCore sink(sys, "leg.sink", defaultIpParams(IpKind::DC), sa, ledger);
    const int pl = prod.bindLane(1);
    const int sl = sink.bindLane(1);
    prod.connectLane(pl, &sink, sl);
    bool done = false;
    sink.makeLaneSink(sl, [&done](FlowId, std::uint64_t) { done = true; });
    sys.run(0);
    const std::int64_t t0 = nowNs();
    prod.announceFrame(pl, 0, bytes, bytes, MaxTick, true);
    sink.announceFrame(sl, 0, bytes, 0, MaxTick, true);
    prod.feedFrame(pl, 0, bytes, 0, false);
    drain(sys, [&] { return done; });
    return double(nowNs() - t0) / (double(bytes) / 1024.0);
}

} // namespace

void
runLegs(int batches, Report &out)
{
    out.value("sim.schedule_service_ns",
              fastOf(batches, [] { return kernelLeg(false); }));
    out.value("sim.cancel_ns",
              fastOf(batches, [] { return kernelLeg(true); }));
    out.value("mem.access_seq_ns",
              fastOf(batches, [] { return memLeg(true); }));
    out.value("mem.access_rand_ns",
              fastOf(batches, [] { return memLeg(false); }));
    out.value("sa.peer_transfer_ns", fastOf(batches, [] {
                  return saLeg([](SystemAgent &sa, int,
                                  SystemAgent::Callback cb) {
                      sa.peerTransfer(kRequestBytes, std::move(cb));
                  });
              }));
    out.value("sa.signal_ns", fastOf(batches, [] {
                  return saLeg([](SystemAgent &sa, int,
                                  SystemAgent::Callback cb) {
                      sa.signal(std::move(cb));
                  });
              }));
    out.value("sa.mem_access_ns", fastOf(batches, [] {
                  return saLeg([](SystemAgent &sa, int i,
                                  SystemAgent::Callback cb) {
                      MemRequest req;
                      req.addr = Addr(i) * kRequestBytes;
                      req.bytes = kRequestBytes;
                      req.onComplete = std::move(cb);
                      sa.memoryAccess(std::move(req));
                  });
              }));
    out.value("ip.stream_ns_per_kb_64k",
              fastOf(batches, [] { return streamLeg(64 * 1024); }));
    out.value("ip.stream_ns_per_kb_1m",
              fastOf(batches, [] { return streamLeg(1024 * 1024); }));
    out.value("cpu.dispatch_ns",
              fastOf(batches, [] { return cpuLeg(false); }));
    out.value("cpu.interrupt_ns",
              fastOf(batches, [] { return cpuLeg(true); }));
}

} // namespace vipbench
