#include "stats/stats.hh"

#include "sim/snapshot.hh"

namespace vip
{
namespace stats
{

void
TimeWeighted::saveState(SnapshotWriter &w) const
{
    w.d(_current);
    w.d(_weighted);
    w.d(_timeAbove);
    w.tick(_elapsed);
    w.tick(_last);
}

void
TimeWeighted::loadState(SnapshotReader &r)
{
    _current = r.d();
    _weighted = r.d();
    _timeAbove = r.d();
    _elapsed = r.tick();
    _last = r.tick();
}

void
Accumulator::saveState(SnapshotWriter &w) const
{
    w.u64(_n);
    w.d(_sum);
    w.d(_meanRun);
    w.d(_m2);
    w.d(_min);
    w.d(_max);
}

void
Accumulator::loadState(SnapshotReader &r)
{
    _n = r.u64();
    _sum = r.d();
    _meanRun = r.d();
    _m2 = r.d();
    _min = r.d();
    _max = r.d();
}

void
Histogram::saveState(SnapshotWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(_bins.size()));
    for (std::uint64_t b : _bins)
        w.u64(b);
    w.u64(_total);
}

void
Histogram::loadState(SnapshotReader &r)
{
    std::uint32_t n = r.u32();
    if (n != _bins.size()) {
        fatal("histogram: snapshot has ", n, " bins, this build has ",
              _bins.size(), " (version skew)");
    }
    for (auto &b : _bins)
        b = r.u64();
    _total = r.u64();
}

} // namespace stats
} // namespace vip
