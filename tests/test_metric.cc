/**
 * @file
 * Tests for the OutputMetric phase machine of Fig. 2: warm-up discarding,
 * the calibration product (the lag), lag-spaced acceptance during
 * measurement, convergence, estimates, and the master/slave merge hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "base/random.hh"
#include "stats/metric.hh"

namespace bighouse {
namespace {

MetricSpec
quickSpec(std::string name = "latency")
{
    MetricSpec spec;
    spec.name = std::move(name);
    spec.warmupSamples = 100;
    spec.calibrationSamples = 1000;
    spec.target = ConfidenceSpec{0.05, 0.95};
    spec.quantiles = {0.95};
    spec.checkInterval = 16;
    return spec;
}

void
feedIid(OutputMetric& metric, std::uint64_t count, std::uint64_t seed = 1,
        double rate = 1.0)
{
    Rng rng(seed);
    for (std::uint64_t i = 0; i < count; ++i)
        metric.record(rng.exponential(rate));
}

TEST(OutputMetric, FollowsPhaseSequence)
{
    OutputMetric metric(quickSpec());
    EXPECT_EQ(metric.phase(), Phase::Warmup);
    feedIid(metric, 100);
    EXPECT_EQ(metric.phase(), Phase::Calibration);
    feedIid(metric, 1000, 2);
    EXPECT_EQ(metric.phase(), Phase::Measurement);
    EXPECT_GE(metric.lag(), 1u);
    // Exponential iid with Cv=1: Nm = (1.96/0.05)^2 ~ 1537.
    feedIid(metric, 4000, 3);
    EXPECT_EQ(metric.phase(), Phase::Converged);
    EXPECT_TRUE(metric.converged());
}

TEST(OutputMetric, WarmupDiscardsObservations)
{
    OutputMetric metric(quickSpec());
    feedIid(metric, 100);
    EXPECT_EQ(metric.acceptedCount(), 0u);
    EXPECT_EQ(metric.offeredCount(), 100u);
}

TEST(OutputMetric, NoWarmupStartsAtCalibration)
{
    MetricSpec spec = quickSpec();
    spec.warmupSamples = 0;
    OutputMetric metric(spec);
    EXPECT_EQ(metric.phase(), Phase::Calibration);
}

TEST(OutputMetric, CalibrationObservationsExcludedFromEstimate)
{
    OutputMetric metric(quickSpec());
    feedIid(metric, 1100);  // warmup + calibration exactly
    EXPECT_EQ(metric.phase(), Phase::Measurement);
    EXPECT_EQ(metric.acceptedCount(), 0u);
}

TEST(OutputMetric, IidStreamUsesLagOne)
{
    OutputMetric metric(quickSpec());
    feedIid(metric, 1100);
    EXPECT_EQ(metric.lag(), 1u);
    EXPECT_TRUE(metric.lagTestPassed());
}

TEST(OutputMetric, AutocorrelatedStreamGetsSpacedOut)
{
    MetricSpec spec = quickSpec();
    spec.calibrationSamples = 5000;  // the paper's calibration size
    spec.target.accuracy = 1e-9;     // keep measuring; never converge
    OutputMetric metric(spec);
    Rng rng(5);
    double state = 1.0;
    auto nextValue = [&] {
        state = 0.9 * state + 0.1 * rng.exponential(1.0);
        return state;
    };
    // Sequential calibration may extend the buffer; feed until the lag
    // search settles (bounded by maxCalibrationFactor).
    int fed = 0;
    while (metric.phase() != Phase::Measurement && fed < 200000) {
        metric.record(nextValue());
        ++fed;
    }
    ASSERT_EQ(metric.phase(), Phase::Measurement);
    EXPECT_GT(metric.lag(), 1u);

    // With lag l, accepted counts grow ~1/l of offered.
    const std::uint64_t offeredBefore = metric.offeredCount();
    const std::uint64_t acceptedBefore = metric.acceptedCount();
    const int extra = 20000;
    for (int i = 0; i < extra; ++i)
        metric.record(nextValue());
    const std::uint64_t offered = metric.offeredCount() - offeredBefore;
    EXPECT_NEAR(static_cast<double>(metric.acceptedCount()
                                    - acceptedBefore),
                static_cast<double>(offered) / static_cast<double>(metric.lag()), 2.0);
}

TEST(OutputMetric, ConstantStreamCalibratesAtLagOne)
{
    // A deterministic metric (e.g. constant service at zero load) must
    // not stall calibration: the runs-up test is degenerate on ties, so
    // lag 1 is accepted directly and the zero-variance sample converges
    // at the sample-size floor.
    OutputMetric metric(quickSpec());
    for (int i = 0; i < 1100; ++i)
        metric.record(3.25);
    EXPECT_EQ(metric.phase(), Phase::Measurement);
    EXPECT_EQ(metric.lag(), 1u);
    EXPECT_TRUE(metric.lagTestPassed());
    for (int i = 0; i < 200; ++i)
        metric.record(3.25);
    EXPECT_TRUE(metric.converged());
    EXPECT_NEAR(metric.estimate().mean, 3.25, 1e-9);
}

TEST(OutputMetric, CalibrationExtendsUntilRunsUpPasses)
{
    // An AR(1) stream with moderate correlation: a 1000-observation
    // buffer can only test lags 1-2 and fails; the sequential extension
    // must grow the buffer until some testable lag passes.
    MetricSpec spec = quickSpec();
    spec.calibrationSamples = 1000;
    spec.maxCalibrationFactor = 64;
    OutputMetric metric(spec);
    Rng rng(6);
    double state = 0.0;
    int fed = 0;
    while (metric.phase() != Phase::Measurement && fed < 500000) {
        state = 0.95 * state + rng.gaussian() + 10.0;
        metric.record(state);
        ++fed;
    }
    ASSERT_EQ(metric.phase(), Phase::Measurement);
    EXPECT_TRUE(metric.lagTestPassed());
    EXPECT_GT(metric.lag(), 1u);
    // Extension happened: more than one plain buffer was consumed.
    EXPECT_GT(metric.offeredCount(), 2 * spec.calibrationSamples);
}

TEST(OutputMetric, EstimateMatchesStream)
{
    OutputMetric metric(quickSpec());
    feedIid(metric, 20000, 7, 2.0);  // mean 0.5
    const MetricEstimate est = metric.estimate();
    EXPECT_TRUE(est.converged);
    EXPECT_NEAR(est.mean, 0.5, 0.05);
    ASSERT_EQ(est.quantiles.size(), 1u);
    // Exponential p95 = -ln(0.05)/rate ~ 1.4979.
    EXPECT_NEAR(est.quantiles[0].value, -std::log(0.05) / 2.0, 0.15);
    EXPECT_GT(est.accepted, 1000u);
    EXPECT_LE(est.relativeHalfWidth, 0.055);
}

TEST(OutputMetric, ConvergenceNeedsRequiredSamples)
{
    OutputMetric metric(quickSpec());
    feedIid(metric, 1100 + 500, 9);  // measurement has only ~500 accepted
    EXPECT_EQ(metric.phase(), Phase::Measurement);
    EXPECT_GT(metric.requiredSamples(), metric.acceptedCount());
}

TEST(OutputMetric, TighterAccuracyConvergesLater)
{
    MetricSpec loose = quickSpec();
    loose.target.accuracy = 0.10;
    MetricSpec tight = quickSpec();
    tight.target.accuracy = 0.02;

    OutputMetric a(loose), b(tight);
    feedIid(a, 1100, 11);
    feedIid(b, 1100, 11);
    std::uint64_t extraA = 0, extraB = 0;
    Rng rng(12);
    while (!a.converged()) {
        a.record(rng.exponential(1.0));
        ++extraA;
    }
    Rng rng2(12);
    while (!b.converged()) {
        b.record(rng2.exponential(1.0));
        ++extraB;
    }
    // E 0.10 -> ~384 samples; E 0.02 -> ~9604. Quadratic scaling.
    EXPECT_GT(extraB, 5 * extraA);
}

TEST(OutputMetric, DisabledSelfConvergenceNeverConverges)
{
    OutputMetric metric(quickSpec());
    metric.disableSelfConvergence();
    feedIid(metric, 50000);
    EXPECT_EQ(metric.phase(), Phase::Measurement);
    // The master decides: evaluateConvergence promotes explicitly.
    EXPECT_TRUE(metric.evaluateConvergence());
    EXPECT_TRUE(metric.converged());
}

TEST(OutputMetric, AbsorbMergesSlaves)
{
    MetricSpec spec = quickSpec();
    OutputMetric master(spec), slaveA(spec), slaveB(spec);
    slaveA.disableSelfConvergence();
    slaveB.disableSelfConvergence();

    feedIid(master, 1100, 21);   // completes calibration, no measurement
    feedIid(slaveA, 3100, 22);
    feedIid(slaveB, 3100, 23);

    const std::uint64_t combined =
        master.acceptedCount() + slaveA.acceptedCount()
        + slaveB.acceptedCount();
    master.absorb(slaveA);
    master.absorb(slaveB);
    EXPECT_EQ(master.acceptedCount(), combined);
    EXPECT_EQ(master.histogram().count(), combined);
    const MetricEstimate est = master.estimate();
    EXPECT_NEAR(est.mean, 1.0, 0.1);
}

TEST(OutputMetric, MergeTargetThatNeverRecordedConverges)
{
    // The parallel master runs no events: its metric is still waiting for
    // calibration when the slaves' samples arrive. Absorbing moves it to
    // Measurement (or evaluateConvergence() could never pass) and keeps
    // the largest absorbed lag, so the merged estimate reports one.
    MetricSpec spec = quickSpec();
    spec.warmupSamples = 0;
    OutputMetric target(spec), slaveA(spec), slaveB(spec);
    slaveA.disableSelfConvergence();
    slaveB.disableSelfConvergence();
    feedIid(slaveA, 5000, 41);
    feedIid(slaveB, 5000, 42);
    ASSERT_EQ(target.phase(), Phase::Calibration);
    EXPECT_EQ(target.estimate().lag, 0u);

    target.absorb(slaveA);
    target.absorb(slaveB);
    EXPECT_EQ(target.phase(), Phase::Measurement);
    EXPECT_EQ(target.lag(), std::max(slaveA.lag(), slaveB.lag()));
    EXPECT_TRUE(target.evaluateConvergence());
    const MetricEstimate est = target.estimate();
    EXPECT_TRUE(est.converged);
    EXPECT_GE(est.lag, 1u);
    EXPECT_EQ(est.accepted,
              slaveA.acceptedCount() + slaveB.acceptedCount());

    // A raw checkpointed sample moves a fresh target the same way.
    OutputMetric revived(spec);
    revived.absorbSample(slaveA.sampleAccumulator(), slaveA.histogram());
    EXPECT_EQ(revived.phase(), Phase::Measurement);
    EXPECT_EQ(revived.acceptedCount(), slaveA.acceptedCount());
}

TEST(OutputMetric, QuantileOnlyMetric)
{
    MetricSpec spec = quickSpec();
    spec.quantiles = {0.5, 0.9, 0.99};
    OutputMetric metric(spec);
    feedIid(metric, 30000, 31);
    const MetricEstimate est = metric.estimate();
    ASSERT_EQ(est.quantiles.size(), 3u);
    EXPECT_NEAR(est.quantiles[0].value, std::log(2.0), 0.1);
    EXPECT_LT(est.quantiles[0].value, est.quantiles[1].value);
    EXPECT_LT(est.quantiles[1].value, est.quantiles[2].value);
}

TEST(OutputMetricDeathTest, InvalidSpecs)
{
    MetricSpec bad = quickSpec();
    bad.calibrationSamples = 10;
    EXPECT_EXIT(OutputMetric{bad}, ::testing::ExitedWithCode(1),
                "calibrationSamples");
    MetricSpec badQ = quickSpec();
    badQ.quantiles = {1.5};
    EXPECT_EXIT(OutputMetric{badQ}, ::testing::ExitedWithCode(1),
                "quantile");
}

/**
 * recordMany() must be bit-identical to a per-sample record() loop: same
 * phase transitions, same lag arithmetic, same accumulator and histogram
 * state — for every way the block boundaries can straddle the warm-up,
 * calibration, and measurement transitions.
 */
TEST(OutputMetric, RecordManyIsBitIdenticalToPerSampleLoop)
{
    // Autocorrelated positives so calibration picks a lag > 1 and the
    // stride arithmetic is actually exercised.
    std::vector<double> sequence;
    Rng rng(814);
    double level = 1.0;
    for (int i = 0; i < 60000; ++i) {
        level = 0.9 * level + 0.1 * rng.exponential(1.0);
        sequence.push_back(level);
    }

    OutputMetric perSample(quickSpec());
    for (double x : sequence)
        perSample.record(x);

    // Odd, co-prime chunk sizes so block boundaries land on every phase
    // edge and at every lag offset over the run.
    OutputMetric bulk(quickSpec());
    const std::size_t chunks[] = {1, 3, 7, 50, 641, 4096};
    std::size_t i = 0, pick = 0;
    const std::span<const double> all(sequence);
    while (i < sequence.size()) {
        const std::size_t n =
            std::min(chunks[pick++ % std::size(chunks)],
                     sequence.size() - i);
        bulk.recordMany(all.subspan(i, n));
        i += n;
    }

    EXPECT_EQ(perSample.phase(), bulk.phase());
    EXPECT_EQ(perSample.lag(), bulk.lag());
    EXPECT_EQ(perSample.offeredCount(), bulk.offeredCount());
    EXPECT_EQ(perSample.acceptedCount(), bulk.acceptedCount());
    const MetricEstimate a = perSample.estimate();
    const MetricEstimate b = bulk.estimate();
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    ASSERT_EQ(a.quantiles.size(), b.quantiles.size());
    EXPECT_EQ(a.quantiles[0].value, b.quantiles[0].value);
    EXPECT_EQ(perSample.histogram().serialize(),
              bulk.histogram().serialize());
}

TEST(OutputMetric, RecordManyPartialBlockLeavesLagMidStride)
{
    // A block that ends between accepted samples must leave the lag
    // counter exactly where the per-sample loop would.
    OutputMetric perSample(quickSpec());
    OutputMetric bulk(quickSpec());
    std::vector<double> sequence;
    Rng rng(11);
    double level = 1.0;
    for (int i = 0; i < 2000; ++i) {
        level = 0.9 * level + 0.1 * rng.exponential(1.0);
        sequence.push_back(level);
    }
    for (double x : sequence)
        perSample.record(x);
    bulk.recordMany(std::span<const double>(sequence));
    ASSERT_GE(static_cast<int>(perSample.phase()),
              static_cast<int>(Phase::Measurement));
    EXPECT_EQ(perSample.offeredCount(), bulk.offeredCount());
    EXPECT_EQ(perSample.acceptedCount(), bulk.acceptedCount());
    // One more element lands both on the same side of the next accept.
    perSample.record(5.0);
    bulk.record(5.0);
    EXPECT_EQ(perSample.acceptedCount(), bulk.acceptedCount());
}

} // namespace
} // namespace bighouse
