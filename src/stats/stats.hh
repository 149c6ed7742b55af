/**
 * @file
 * Distribution value types for the quantities a plain counter cannot
 * hold.  Components own them as fields; the StatRegistry names the
 * values worth exporting (addAccumulator/addTimeWeighted) and the
 * owner's io(StateIO&) carries them through a snapshot.
 *
 *  - TimeWeighted:  time-weighted average of a piecewise-constant
 *                   signal (e.g. queue occupancy, power state).
 *  - Accumulator:   min/max/mean/stddev over samples.
 *  - Histogram:     fixed-width binned distribution (Fig 3d, Fig 5).
 */

#ifndef VIP_STATS_STATS_HH
#define VIP_STATS_STATS_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace vip
{

class StateIO;

namespace stats
{

/**
 * Time-weighted average of a piecewise-constant signal.  Call set()
 * whenever the signal changes; call close() (idempotent) at the end of
 * simulation to account the final segment.
 */
class TimeWeighted
{
  public:
    /** Record that the signal has value @p v from @p now onward. */
    void
    set(double v, Tick now)
    {
        accumulate(now);
        _current = v;
    }

    /** Fold the final segment ending at @p now into the average. */
    void close(Tick now) { accumulate(now); }

    double
    average() const
    {
        return _elapsed > 0
            ? _weighted / static_cast<double>(_elapsed) : _current;
    }

    double current() const { return _current; }

    /** Total ticks during which the signal was > 0. */
    double timeAbove() const { return _timeAbove; }

    /** Checkpoint/restore: bit-exact state round-trip. */
    void io(StateIO &io);

  private:
    void
    accumulate(Tick now)
    {
        vip_assert(now >= _last, "TimeWeighted time went backwards");
        Tick dt = now - _last;
        _weighted += _current * static_cast<double>(dt);
        if (_current > 0.0)
            _timeAbove += static_cast<double>(dt);
        _elapsed += dt;
        _last = now;
    }

    double _current = 0.0;
    double _weighted = 0.0;
    double _timeAbove = 0.0;
    Tick _elapsed = 0;
    Tick _last = 0;
};

/**
 * Sample accumulator: count/min/max/mean/stddev.
 *
 * Variance uses Welford's online update rather than the naive
 * sum-of-squares form: E[x²]−E[x]² cancels catastrophically when the
 * mean dwarfs the spread (constant inputs reported nonzero stddev;
 * large-offset samples lost all variance precision).
 */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        ++_n;
        _sum += v;
        double delta = v - _meanRun;
        _meanRun += delta / static_cast<double>(_n);
        _m2 += delta * (v - _meanRun);
        if (_n == 1 || v < _min)
            _min = v;
        if (_n == 1 || v > _max)
            _max = v;
    }

    std::uint64_t count() const { return _n; }
    double sum() const { return _sum; }
    double mean() const { return _n ? _meanRun : 0.0; }
    double min() const { return _n ? _min : 0.0; }
    double max() const { return _n ? _max : 0.0; }

    double
    stddev() const
    {
        if (_n < 2)
            return 0.0;
        double var = _m2 / static_cast<double>(_n);
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    /** Checkpoint/restore: bit-exact state round-trip. */
    void io(StateIO &io);

  private:
    std::uint64_t _n = 0;
    double _sum = 0.0;
    double _meanRun = 0.0; ///< running mean (Welford)
    double _m2 = 0.0;      ///< sum of squared deviations from mean
    double _min = 0.0;
    double _max = 0.0;
};

/** Fixed-range histogram with uniform bins; samples clamp to range. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins)
        : _lo(lo), _hi(hi), _bins(bins, 0)
    {
        vip_assert(hi > lo && bins > 0, "bad histogram shape");
    }

    void
    sample(double v, std::uint64_t weight = 1)
    {
        std::size_t idx;
        if (v <= _lo) {
            idx = 0;
        } else if (v >= _hi) {
            idx = _bins.size() - 1;
        } else {
            idx = static_cast<std::size_t>(
                (v - _lo) / (_hi - _lo) * _bins.size());
            if (idx >= _bins.size())
                idx = _bins.size() - 1;
        }
        _bins[idx] += weight;
        _total += weight;
    }

    std::size_t numBins() const { return _bins.size(); }
    std::uint64_t binCount(std::size_t i) const { return _bins.at(i); }
    std::uint64_t total() const { return _total; }

    /** Fraction of samples in bin @p i. */
    double
    binFraction(std::size_t i) const
    {
        return _total ? static_cast<double>(_bins.at(i)) / _total : 0.0;
    }

    /** Lower edge of bin @p i. */
    double
    binLo(std::size_t i) const
    {
        return _lo + (_hi - _lo) * i / _bins.size();
    }

    /** Upper edge of bin @p i. */
    double binHi(std::size_t i) const { return binLo(i + 1); }

    /** Checkpoint/restore: bit-exact state round-trip. */
    void io(StateIO &io);

  private:
    double _lo, _hi;
    std::vector<std::uint64_t> _bins;
    std::uint64_t _total = 0;
};

} // namespace stats
} // namespace vip

#endif // VIP_STATS_STATS_HH
