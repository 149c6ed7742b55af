#include "stats/stats.hh"

#include "sim/state_io.hh"

namespace vip
{
namespace stats
{

void
TimeWeighted::io(StateIO &io)
{
    io.d(_current);
    io.d(_weighted);
    io.d(_timeAbove);
    io.tick(_elapsed);
    io.tick(_last);
}

void
Accumulator::io(StateIO &io)
{
    io.u64(_n);
    io.d(_sum);
    io.d(_meanRun);
    io.d(_m2);
    io.d(_min);
    io.d(_max);
}

void
Histogram::io(StateIO &io)
{
    io.shape("histogram", "bins", _bins.size());
    for (std::uint64_t &b : _bins)
        io.u64(b);
    io.u64(_total);
}

} // namespace stats
} // namespace vip
