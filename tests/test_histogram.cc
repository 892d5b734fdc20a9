/**
 * @file
 * Tests for the log-linear histogram: quantiles within one relative bin
 * width of the exact order statistic on heavy-tailed input, exact zeros
 * and 0/1 indicators, merging (the Fig. 3 reduce step), the strict
 * serialization, and the finite-and-non-negative observation contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "base/random.hh"
#include "stats/histogram.hh"

namespace bighouse {
namespace {

/**
 * The observation quantile(q) must land near: the k-th smallest, where
 * k = ceil(q * n) is the first rank whose cumulative count reaches q*n.
 */
double
rankObservation(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const double target = q * static_cast<double>(xs.size());
    const auto k = static_cast<std::size_t>(std::ceil(target));
    return xs[std::max<std::size_t>(k, 1) - 1];
}

/** One bin's width relative to its lower edge. */
constexpr double kRelativeWidth =
    1.0 / static_cast<double>(Histogram::kSubBins);

void
expectWithinOneBin(const Histogram& h, const std::vector<double>& xs,
                   double q)
{
    const double exact = rankObservation(xs, q);
    EXPECT_LE(std::abs(h.quantile(q) - exact), exact * kRelativeWidth)
        << "q=" << q << " exact=" << exact;
}

TEST(Histogram, CountsAndRangeTracking)
{
    Histogram h;
    EXPECT_EQ(h.binCount(), 0u);  // nothing allocated until the first add
    h.add(5.0);
    EXPECT_EQ(h.binCount(), 1u);
    h.add(1e-9);
    h.add(1e9);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.observedMin(), 1e-9);
    EXPECT_DOUBLE_EQ(h.observedMax(), 1e9);
    // 1e-9 .. 1e9 spans 60 octaves of kSubBins bins each (plus padding).
    EXPECT_GE(h.binCount(), 59 * Histogram::kSubBins);
}

TEST(Histogram, QuantilesMatchExactSortWithinBinWidth)
{
    // Heavy tails: a Pareto(alpha = 1.2) and a lognormal spanning many
    // octaves; every quantile lies within one relative bin width of the
    // order statistic it targets.
    Rng rng(42);
    Histogram pareto, lognormal;
    std::vector<double> xs, ys;
    for (int i = 0; i < 200000; ++i) {
        const double x = 0.01 / std::pow(rng.uniform01(), 1.0 / 1.2);
        const double y = std::exp(3.0 * rng.gaussian());
        xs.push_back(x);
        ys.push_back(y);
        pareto.add(x);
        lognormal.add(y);
    }
    for (double q : {0.001, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}) {
        expectWithinOneBin(pareto, xs, q);
        expectWithinOneBin(lognormal, ys, q);
    }
}

TEST(Histogram, QuantileEdgeCases)
{
    Histogram h;
    h.add(0.25);
    h.add(0.75);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.25);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.75);

    // A bin's edges are clamped to the observed extremes, so a constant
    // stream reports its value exactly at every q.
    Histogram constant;
    for (int i = 0; i < 100; ++i)
        constant.add(3.3);
    for (double q : {0.01, 0.5, 0.95})
        EXPECT_EQ(constant.quantile(q), 3.3) << "q=" << q;
    EXPECT_EQ(constant.cdfAt(3.3), 1.0);
    EXPECT_EQ(constant.cdfAt(3.2), 0.0);
}

TEST(Histogram, ExactZerosAreAPointMass)
{
    Histogram h;
    for (int i = 0; i < 30; ++i)
        h.add(0.0);
    for (int i = 1; i <= 70; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.observedMin(), 0.0);
    EXPECT_EQ(h.quantile(0.3), 0.0);
    EXPECT_GT(h.quantile(0.31), 0.0);
    EXPECT_NEAR(h.cdfAt(0.0), 0.3, 1e-12);
    EXPECT_NEAR(h.cdfAt(0.5), 0.3, 1e-12);  // nothing in (0, 1)
    EXPECT_NEAR(h.cdfAt(70.0), 1.0, 1e-12);
}

TEST(Histogram, IndicatorOccupiesOneBin)
{
    // A 0/1 stream: the zero count plus the single bin holding 1.0.
    Rng rng(3);
    Histogram h;
    std::uint64_t ones = 0;
    for (int i = 0; i < 100000; ++i) {
        const bool hit = rng.bernoulli(0.8);
        ones += hit ? 1 : 0;
        h.add(hit ? 1.0 : 0.0);
    }
    EXPECT_EQ(h.binCount(), 1u);
    const double zeroShare = 1.0 - static_cast<double>(ones) / 100000.0;
    EXPECT_NEAR(h.cdfAt(0.0), zeroShare, 1e-12);
    EXPECT_EQ(h.quantile(0.1), 0.0);
    EXPECT_EQ(h.quantile(0.5), 1.0);
    EXPECT_EQ(h.quantile(0.95), 1.0);
}

TEST(Histogram, MergeEqualsUnion)
{
    // Two halves over different, partly disjoint ranges (the second half
    // reaches 10^6 x further out): merging needs no shared layout.
    Histogram a, b, whole;
    Rng rng(9);
    for (int i = 0; i < 20000; ++i) {
        const double x = i % 2 == 0 ? rng.exponential(0.7)
                                    : 1e6 * rng.exponential(0.7);
        whole.add(x);
        (i % 2 == 0 ? a : b).add(x);
    }
    for (int i = 0; i < 50; ++i) {
        whole.add(0.0);
        b.add(0.0);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.serialize(), whole.serialize());
    for (double q : {0.25, 0.5, 0.9, 0.95})
        EXPECT_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
    EXPECT_EQ(a.observedMin(), whole.observedMin());
    EXPECT_EQ(a.observedMax(), whole.observedMax());

    // Merging an empty histogram is a no-op; merging into one copies.
    Histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.serialize(), whole.serialize());
    empty.merge(whole);
    EXPECT_EQ(empty.serialize(), whole.serialize());
}

TEST(Histogram, SerializeRoundTrip)
{
    Histogram h;
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        h.add(rng.uniform(0.0, 7.0));
    h.add(0.0);
    const std::string line = h.serialize();
    EXPECT_EQ(line.rfind("loglinear256 ", 0), 0u) << line;
    const Histogram loaded = Histogram::deserialize(line);
    EXPECT_EQ(loaded.serialize(), line);
    EXPECT_EQ(loaded.count(), h.count());
    EXPECT_EQ(loaded.observedMin(), h.observedMin());
    EXPECT_EQ(loaded.observedMax(), h.observedMax());
    for (double q : {0.1, 0.5, 0.95})
        EXPECT_EQ(loaded.quantile(q), h.quantile(q));
    for (double x : {0.0, 0.3, 3.5, 6.9})
        EXPECT_EQ(loaded.cdfAt(x), h.cdfAt(x));
}

TEST(Histogram, SerializeRoundTripEmpty)
{
    Histogram h;
    const Histogram loaded = Histogram::deserialize(h.serialize());
    EXPECT_EQ(loaded.count(), 0u);
    // Merging an empty deserialized histogram must not disturb extremes.
    Histogram other;
    other.add(0.5);
    other.merge(loaded);
    EXPECT_DOUBLE_EQ(other.observedMin(), 0.5);
    EXPECT_DOUBLE_EQ(other.observedMax(), 0.5);
}

TEST(Histogram, DeserializeRejectsTrailingGarbage)
{
    Histogram h;
    h.add(0.5);
    const std::string line = h.serialize();
    EXPECT_EXIT(Histogram::deserialize(line + " 99"),
                ::testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT(Histogram::deserialize(line + " junk"),
                ::testing::ExitedWithCode(1), "malformed");
    // Pure trailing whitespace is framing, not data.
    EXPECT_EQ(Histogram::deserialize(line + " \t").serialize(), line);
}

TEST(Histogram, DeserializeRejectsMalformedInput)
{
    // The key of 1.0 is 0x3ff00 = 261888.
    const std::string ok = "loglinear256 3 1 0 1 261888 1 2";
    EXPECT_EQ(Histogram::deserialize(ok).count(), 3u);
    for (const char* bad : {
             // another resolution, and the calibrated-bin format
             "loglinear128 3 1 0 1 261888 1 2",
             "binscheme 0 1 4 ; 1 0 0 0.5 0.5 0 0 1 0",
             // missing fields, and fewer counts than declared
             "loglinear256 3 1 0 1",
             "loglinear256 3 1 0 1 261888 2 2",
             // counts that do not sum to the total, or exceed it
             "loglinear256 4 1 0 1 261888 1 2",
             "loglinear256 3 1 0 1 261888 1 18446744073709551615",
             "loglinear256 3 4 0 1 261888 1 2",
             // non-finite or negative extremes, inverted extremes
             "loglinear256 3 1 0 inf 261888 1 2",
             "loglinear256 3 1 nan 1 261888 1 2",
             "loglinear256 3 1 -1 1 261888 1 2",
             "loglinear256 3 1 2 1 261888 1 2",
             // negative counts and keys beyond the largest finite value
             "loglinear256 3 1 0 1 261888 1 -2",
             "loglinear256 3 1 0 1 9999999 1 2",
             // an empty histogram with extremes
             "loglinear256 0 0 1 1 0 0",
         }) {
        EXPECT_EXIT(Histogram::deserialize(bad),
                    ::testing::ExitedWithCode(1), "malformed")
            << bad;
    }
}

TEST(HistogramDeathTest, InvalidUse)
{
    Histogram h;
    EXPECT_DEATH(h.quantile(0.5), "empty histogram");
    h.add(0.5);
    EXPECT_DEATH(h.quantile(1.5), "0,1");
}

TEST(HistogramDeathTest, RejectsNegativeAndNonFiniteObservations)
{
    Histogram h;
    EXPECT_DEATH(h.add(-1.0), "finite and >= 0");
    EXPECT_DEATH(h.add(std::numeric_limits<double>::quiet_NaN()),
                 "finite and >= 0");
    EXPECT_DEATH(h.add(std::numeric_limits<double>::infinity()),
                 "finite and >= 0");
}

} // namespace
} // namespace bighouse
