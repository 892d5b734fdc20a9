/**
 * @file
 * Tests for StatsCollection: the paper's two multi-metric constraints
 * (global warm-up gate; all-metrics convergence), name lookup, and
 * reporting.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "base/random.hh"
#include "stats/collection.hh"

namespace bighouse {
namespace {

MetricSpec
spec(std::string name, std::uint64_t warmup = 100)
{
    MetricSpec s;
    s.name = std::move(name);
    s.warmupSamples = warmup;
    s.calibrationSamples = 1000;
    s.checkInterval = 16;
    return s;
}

TEST(StatsCollection, WarmupGateWaitsForAllMetrics)
{
    StatsCollection stats;
    const auto fast = stats.addMetric(spec("fast", 10));
    const auto slow = stats.addMetric(spec("slow", 1000));
    EXPECT_FALSE(stats.warmedUp());

    Rng rng(1);
    for (int i = 0; i < 500; ++i)
        stats.record(fast, rng.exponential(1.0));
    // 'fast' has far exceeded its own Nw, but 'slow' has seen nothing:
    // constraint 1 keeps the whole simulation in warm-up.
    EXPECT_FALSE(stats.warmedUp());
    EXPECT_EQ(stats.globalPhase(), Phase::Warmup);
    EXPECT_EQ(stats.metric(fast).acceptedCount(), 0u);

    for (int i = 0; i < 1000; ++i)
        stats.record(slow, rng.exponential(1.0));
    EXPECT_TRUE(stats.warmedUp());
}

TEST(StatsCollection, ObservationsDuringWarmupAreDiscarded)
{
    StatsCollection stats;
    const auto id = stats.addMetric(spec("m", 50));
    Rng rng(2);
    for (int i = 0; i < 50; ++i)
        stats.record(id, rng.exponential(1.0));
    EXPECT_TRUE(stats.warmedUp());
    EXPECT_EQ(stats.metric(id).offeredCount(), 0u);
}

TEST(StatsCollection, AllConvergedRequiresEveryMetric)
{
    StatsCollection stats;
    const auto a = stats.addMetric(spec("a", 10));
    const auto b = stats.addMetric(spec("b", 10));

    Rng rng(3);
    auto feedBoth = [&](int n) {
        for (int i = 0; i < n; ++i) {
            stats.record(a, rng.exponential(1.0));
            if (i % 10 == 0)  // b observes rarely (like waiting time)
                stats.record(b, rng.exponential(1.0));
        }
    };
    feedBoth(8000);
    EXPECT_TRUE(stats.metric(a).converged());
    EXPECT_FALSE(stats.metric(b).converged());
    EXPECT_FALSE(stats.allConverged());  // constraint 2

    feedBoth(60000);
    EXPECT_TRUE(stats.metric(b).converged());
    EXPECT_TRUE(stats.allConverged());
    EXPECT_EQ(stats.globalPhase(), Phase::Converged);
}

TEST(StatsCollection, EmptyCollectionNeverConverges)
{
    StatsCollection stats;
    EXPECT_FALSE(stats.allConverged());
}

TEST(StatsCollection, GlobalPhaseIsCoarsest)
{
    StatsCollection stats;
    const auto a = stats.addMetric(spec("a", 10));
    const auto b = stats.addMetric(spec("b", 10));
    Rng rng(4);
    for (int i = 0; i < 10; ++i) {
        stats.record(a, rng.exponential(1.0));
        stats.record(b, rng.exponential(1.0));
    }
    EXPECT_TRUE(stats.warmedUp());
    // a gets through calibration into measurement; b stays calibrating.
    for (int i = 0; i < 1500; ++i)
        stats.record(a, rng.exponential(1.0));
    EXPECT_EQ(stats.metric(a).phase(), Phase::Measurement);
    EXPECT_EQ(stats.metric(b).phase(), Phase::Calibration);
    EXPECT_EQ(stats.globalPhase(), Phase::Calibration);
}

TEST(StatsCollection, LookupByName)
{
    StatsCollection stats;
    stats.addMetric(spec("response"));
    const auto id = stats.addMetric(spec("power"));
    EXPECT_EQ(stats.idByName("power"), id);
    EXPECT_EQ(stats.metricByName("response").specification().name,
              "response");
    EXPECT_EXIT(stats.idByName("bogus"), ::testing::ExitedWithCode(1),
                "unknown metric");
}

TEST(StatsCollection, DuplicateNamesRejected)
{
    StatsCollection stats;
    stats.addMetric(spec("m"));
    EXPECT_EXIT(stats.addMetric(spec("m")), ::testing::ExitedWithCode(1),
                "duplicate");
}

TEST(StatsCollection, ReportContainsMetricsAndQuantiles)
{
    StatsCollection stats;
    const auto id = stats.addMetric(spec("latency", 10));
    Rng rng(5);
    for (int i = 0; i < 8000; ++i)
        stats.record(id, rng.exponential(1.0));
    const std::string text = stats.report();
    EXPECT_NE(text.find("latency"), std::string::npos);
    EXPECT_NE(text.find("converged"), std::string::npos);
    EXPECT_NE(text.find("p95"), std::string::npos);
}

TEST(StatsCollection, EstimatesSnapshotHasAllMetrics)
{
    StatsCollection stats;
    stats.addMetric(spec("a"));
    stats.addMetric(spec("b"));
    const auto snapshot = stats.estimates();
    ASSERT_EQ(snapshot.size(), 2u);
    EXPECT_EQ(snapshot[0].name, "a");
    EXPECT_EQ(snapshot[1].name, "b");
}

/**
 * The collection-level bulk path must match per-sample recording even
 * when the global warm-up gate opens in the middle of a block (the
 * opening observation is discarded either way).
 */
TEST(StatsCollection, RecordManyMatchesPerSampleAcrossWarmupGate)
{
    std::vector<double> sequence;
    Rng rng(271);
    for (int i = 0; i < 5000; ++i)
        sequence.push_back(rng.exponential(1.0));

    StatsCollection perSample;
    const auto idA = perSample.addMetric(spec("latency", 137));
    for (double x : sequence)
        perSample.record(idA, x);

    StatsCollection bulk;
    const auto idB = bulk.addMetric(spec("latency", 137));
    // 100-element blocks: the 137-sample warm-up target opens the gate
    // inside the second block.
    const std::span<const double> all(sequence);
    for (std::size_t i = 0; i < sequence.size(); i += 100)
        bulk.recordMany(idB, all.subspan(i, std::min<std::size_t>(
                                                100, sequence.size() - i)));

    EXPECT_TRUE(perSample.warmedUp());
    EXPECT_TRUE(bulk.warmedUp());
    const OutputMetric& a = perSample.metric(idA);
    const OutputMetric& b = bulk.metric(idB);
    EXPECT_EQ(a.offeredCount(), b.offeredCount());
    EXPECT_EQ(a.acceptedCount(), b.acceptedCount());
    EXPECT_EQ(a.phase(), b.phase());
    EXPECT_EQ(a.estimate().mean, b.estimate().mean);
    EXPECT_EQ(a.estimate().stddev, b.estimate().stddev);
}

} // namespace
} // namespace bighouse
