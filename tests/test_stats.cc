/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "obs/latency.hh"
#include "stats/stats.hh"

namespace vip
{
namespace stats
{
namespace
{

TEST(TimeWeighted, ExactPiecewiseAverage)
{
    TimeWeighted w;
    w.set(1.0, 0);     // 1.0 from 0
    w.set(0.0, 100);   // 0.0 from 100
    w.close(400);      // -> avg = (1*100 + 0*300)/400
    EXPECT_DOUBLE_EQ(w.average(), 0.25);
    EXPECT_DOUBLE_EQ(w.timeAbove(), 100.0);
}

TEST(TimeWeighted, TimeBackwardsPanics)
{
    TimeWeighted w;
    w.set(1.0, 100);
    EXPECT_THROW(w.set(2.0, 50), SimPanic);
}

TEST(Accumulator, MomentsAndExtremes)
{
    Accumulator a;
    for (double v : {2.0, 4.0, 6.0, 8.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 8.0);
    EXPECT_DOUBLE_EQ(a.sum(), 20.0);
    EXPECT_NEAR(a.stddev(), std::sqrt(5.0), 1e-9);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
}

TEST(Accumulator, ConstantInputsHaveZeroStddev)
{
    // The naive E[x^2]-E[x]^2 form reports nonzero stddev here from
    // catastrophic cancellation; Welford's update must not.
    Accumulator a;
    for (int i = 0; i < 1000; ++i)
        a.sample(1e9 + 0.1);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(a.mean(), 1e9 + 0.1);
}

TEST(Accumulator, VarianceSurvivesLargeOffset)
{
    // Small spread on a huge mean: the double sum-of-squares form
    // loses all variance bits (1e18 + 1 == 1e18); Welford keeps them.
    Accumulator a;
    for (double v : {1e9, 1e9 + 1.0, 1e9 + 2.0})
        a.sample(v);
    EXPECT_NEAR(a.stddev(), std::sqrt(2.0 / 3.0), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), 1e9);
    EXPECT_DOUBLE_EQ(a.max(), 1e9 + 2.0);
}

TEST(Accumulator, SingleSampleStddevIsZero)
{
    Accumulator a;
    a.sample(42.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(a.mean(), 42.0);
}

TEST(TimeWeighted, ZeroElapsedReportsCurrent)
{
    // close() at the same tick as set(): no time has passed, so the
    // average degrades to the only value ever seen, not 0/0.
    TimeWeighted w;
    w.set(3.0, 0);
    w.close(0);
    EXPECT_DOUBLE_EQ(w.average(), 3.0);
    EXPECT_DOUBLE_EQ(w.timeAbove(), 0.0);
}

TEST(Histogram, BinPlacementAndFractions)
{
    Histogram h(0.0, 100.0, 10);
    h.sample(5.0);    // bin 0
    h.sample(15.0);   // bin 1
    h.sample(15.0);   // bin 1
    h.sample(99.0);   // bin 9
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_DOUBLE_EQ(h.binFraction(1), 0.5);
    EXPECT_DOUBLE_EQ(h.binLo(1), 10.0);
    EXPECT_DOUBLE_EQ(h.binHi(1), 20.0);
}

TEST(Histogram, ClampsOutOfRangeSamples)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-5.0);
    h.sample(50.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
}

TEST(Histogram, RangeEdgesLandInEndBins)
{
    // Exactly lo goes to the first bin, exactly hi to the last; the
    // bin arithmetic must not index one past the end at v == hi.
    Histogram h(0.0, 10.0, 5);
    h.sample(0.0);
    h.sample(10.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.total(), 2u);
}

TEST(LogHistogram, EmptyPercentilesAreZero)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50.0), Tick{0});
    EXPECT_EQ(h.percentile(99.0), Tick{0});
    EXPECT_EQ(h.min(), Tick{0});
    EXPECT_EQ(h.max(), Tick{0});
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, PercentilesBracketSamples)
{
    LogHistogram h;
    for (Tick t = 1; t <= 100; ++t)
        h.sample(t * 1000);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.min(), Tick{1000});
    EXPECT_EQ(h.max(), Tick{100000});
    // Log-linear buckets: the percentile is a bucket midpoint, so it
    // is approximate but must stay within the sampled range and be
    // monotone in p.
    Tick p50 = h.percentile(50.0);
    Tick p99 = h.percentile(99.0);
    EXPECT_GE(p50, h.min());
    EXPECT_LE(p99, h.max() * 2);
    EXPECT_LE(p50, p99);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h(0.0, 10.0, 2);
    h.sample(1.0, 7);
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.binCount(0), 7u);
}

TEST(Histogram, BadShapePanics)
{
    EXPECT_THROW(Histogram(5.0, 5.0, 4), SimPanic);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), SimPanic);
}

} // namespace
} // namespace stats
} // namespace vip
