#include "obs/latency.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/stat_registry.hh"
#include "sim/state_io.hh"

namespace vip
{

std::size_t
LogHistogram::bucketOf(Tick v)
{
    if (v < kSubBuckets)
        return static_cast<std::size_t>(v);
    unsigned major = std::bit_width(v) - 1; // MSB position, >= kSubBits
    unsigned shift = major - kSubBits;
    std::size_t sub = static_cast<std::size_t>((v >> shift)
                                               & (kSubBuckets - 1));
    return kSubBuckets + std::size_t{major - kSubBits} * kSubBuckets
           + sub;
}

Tick
LogHistogram::bucketMid(std::size_t b)
{
    if (b < kSubBuckets)
        return static_cast<Tick>(b);
    unsigned shift = static_cast<unsigned>((b - kSubBuckets)
                                           / kSubBuckets);
    Tick sub = static_cast<Tick>((b - kSubBuckets) % kSubBuckets);
    Tick lo = (Tick{kSubBuckets} + sub) << shift;
    Tick width = Tick{1} << shift;
    return lo + width / 2;
}

void
LogHistogram::sample(Tick v)
{
    std::size_t b = bucketOf(v);
    if (b >= _bins.size())
        _bins.resize(b + 1, 0);
    ++_bins[b];
    ++_count;
    _min = std::min(_min, v);
    _max = std::max(_max, v);
    _sum += static_cast<double>(v);
}

double
LogHistogram::mean() const
{
    return _count ? _sum / static_cast<double>(_count) : 0.0;
}

Tick
LogHistogram::percentile(double p) const
{
    if (!_count)
        return 0;
    double want = std::ceil(p / 100.0 * static_cast<double>(_count));
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::clamp(want, 1.0, static_cast<double>(_count)));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < _bins.size(); ++b) {
        cum += _bins[b];
        if (cum >= rank)
            return std::clamp(bucketMid(b), _min, _max);
    }
    return _max;
}

namespace
{

LatencyBreakdown
breakdownOf(const LogHistogram &h)
{
    LatencyBreakdown b;
    b.count = h.count();
    b.meanMs = h.mean() / 1e9; // ticks (ps) -> ms
    b.p50Ms = toMs(h.percentile(50));
    b.p95Ms = toMs(h.percentile(95));
    b.p99Ms = toMs(h.percentile(99));
    b.maxMs = toMs(h.max());
    return b;
}

} // namespace

void
LatencyCollector::recordFrame(Tick endToEnd, Tick transit)
{
    _endToEnd.sample(endToEnd);
    _transit.sample(transit);
}

void
LatencyCollector::recordStage(const std::string &stage, Tick wait,
                              Tick compute, Tick blocked, Tick total)
{
    StageHists &s = _stages[stage];
    s.wait.sample(wait);
    s.compute.sample(compute);
    s.blocked.sample(blocked);
    s.total.sample(total);
}

void
LatencyCollector::recordSaTransfer(Tick duration)
{
    _sa.sample(duration);
}

void
LatencyCollector::recordDramBurst(Tick service)
{
    _dram.sample(service);
}

LatencySummary
LatencyCollector::summarize() const
{
    LatencySummary out;
    out.endToEnd = breakdownOf(_endToEnd);
    out.transit = breakdownOf(_transit);
    out.saTransfer = breakdownOf(_sa);
    out.dramBurst = breakdownOf(_dram);
    for (const auto &[name, hists] : _stages) {
        StageLatency s;
        s.stage = name;
        s.wait = breakdownOf(hists.wait);
        s.compute = breakdownOf(hists.compute);
        s.blocked = breakdownOf(hists.blocked);
        s.total = breakdownOf(hists.total);
        out.stages.push_back(std::move(s));
    }
    return out;
}

void
LatencyCollector::registerStats(StatRegistry &r) const
{
    r.addLogHistogramMs("latency.end_to_end",
                        "frame generation -> sink", _endToEnd);
    r.addLogHistogramMs("latency.transit", "first start -> sink",
                        _transit);
    r.addLogHistogramMs("latency.sa_transfer",
                        "per-transfer SA link occupancy", _sa);
    r.addLogHistogramMs("latency.dram_burst",
                        "per-burst DRAM service time", _dram);
}

void
LogHistogram::io(StateIO &io)
{
    io.seq32(_bins, "histogram bins", [&](std::uint64_t &b) { io.u64(b); });
    io.u64(_count);
    io.tick(_min);
    io.tick(_max);
    io.d(_sum);
}

void
LatencyCollector::io(StateIO &io)
{
    _endToEnd.io(io);
    _transit.io(io);
    _sa.io(io);
    _dram.io(io);
    // The stage map is ordered by name, so iteration is stable.
    std::vector<std::pair<std::string, StageHists>> stages;
    if (io.saving())
        stages.assign(_stages.begin(), _stages.end());
    io.seq32(stages, "latency stages", [&](auto &stage) {
        io.str(stage.first);
        stage.second.wait.io(io);
        stage.second.compute.io(io);
        stage.second.blocked.io(io);
        stage.second.total.io(io);
    });
    if (io.loading())
        _stages = {stages.begin(), stages.end()};
}

} // namespace vip
