/**
 * @file
 * Unit tests for time formatting and histogram property sweeps that
 * close small coverage gaps in the base/stats layers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/random.hh"
#include "base/time.hh"
#include "stats/histogram.hh"

namespace bighouse {
namespace {

TEST(FormatTime, PicksSensibleUnits)
{
    EXPECT_EQ(formatTime(2.5 * kHour), "2.50h");
    EXPECT_EQ(formatTime(90.0), "1.50min");
    EXPECT_EQ(formatTime(3.25), "3.250s");
    EXPECT_EQ(formatTime(12.5 * kMilliSecond), "12.500ms");
    EXPECT_EQ(formatTime(3.0 * kMicroSecond), "3.000us");
    EXPECT_EQ(formatTime(450.0 * kNanoSecond), "450.000ns");
    EXPECT_EQ(formatTime(0.0), "0s");
}

TEST(FormatTime, UnitConstantsAreConsistent)
{
    EXPECT_DOUBLE_EQ(kMinute, 60.0 * kSecond);
    EXPECT_DOUBLE_EQ(kHour, 60.0 * kMinute);
    EXPECT_DOUBLE_EQ(kMilliSecond * 1000.0, kSecond);
    EXPECT_DOUBLE_EQ(kMicroSecond * 1000.0, kMilliSecond);
    EXPECT_DOUBLE_EQ(kNanoSecond * 1000.0, kMicroSecond);
}

/**
 * Property sweep: any two histograms merge into exactly the histogram of
 * their union. Each seed draws a random value range (a fraction of an
 * octave up to dozens of octaves, sometimes with exact zeros) and a
 * random scheme for splitting the stream into two halves, which travel
 * through the wire format before they merge.
 */
class HistogramProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramProperty, SerializeMergeQuantileInvariants)
{
    Rng rng(GetParam());
    const double lo = std::exp2(rng.uniform(-30.0, 30.0));
    const double octaves = rng.uniform(0.1, 40.0);
    const double zeroShare = rng.below(2) == 0 ? 0.0 : rng.uniform(0.0, 0.5);
    const double toA = rng.uniform(0.05, 0.95);

    Histogram a, b, whole;
    const int n = 2000 + static_cast<int>(rng.below(8000));
    for (int i = 0; i < n; ++i) {
        const double x = rng.uniform01() < zeroShare
                             ? 0.0
                             : lo * std::exp2(rng.uniform(0.0, octaves));
        whole.add(x);
        (rng.uniform01() < toA ? a : b).add(x);
    }

    Histogram a2 = Histogram::deserialize(a.serialize());
    const Histogram b2 = Histogram::deserialize(b.serialize());
    a2.merge(b2);
    ASSERT_EQ(a2.count(), whole.count());
    EXPECT_EQ(a2.serialize(), whole.serialize());
    double previous = a2.observedMin();
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const double merged = a2.quantile(q);
        ASSERT_EQ(merged, whole.quantile(q)) << "q=" << q;
        ASSERT_GE(merged, previous);  // monotone
        previous = merged;
    }
    EXPECT_EQ(a2.observedMin(), whole.observedMin());
    EXPECT_EQ(a2.observedMax(), whole.observedMax());
}

INSTANTIATE_TEST_SUITE_P(RandomSchemes, HistogramProperty,
                         ::testing::Values(11u, 23u, 37u, 51u, 67u, 83u,
                                           97u, 113u));

} // namespace
} // namespace bighouse
