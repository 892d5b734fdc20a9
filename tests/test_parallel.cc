/**
 * @file
 * Tests for the master/slave parallel harness (Fig. 3): the merged
 * parallel estimate must agree with a serial run of the same model within
 * the confidence interval, slaves must contribute samples, the phase
 * accounting must be populated, and misuse must be caught.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/experiment.hh"
#include "parallel/parallel.hh"
#include "workload/library.hh"

namespace bighouse {
namespace {

/**
 * A Google-leaf experiment at 50% load, reused across tests. Most tests
 * assert event-denominated expectations (batch sizes, valve promptness,
 * per-slave event shares), so the default pins the event engine rather
 * than letting `auto` pick the recurrence fast path.
 */
ModelBuilder
googleBuilder(double accuracy, SimBackend backend = SimBackend::Des)
{
    ExperimentSpec spec;
    spec.workload = scaledToLoad(makeWorkload("google"), 16, 0.5);
    spec.servers = 1;
    spec.coresPerServer = 16;
    spec.sqs.accuracy = accuracy;
    spec.simBackend = backend;
    auto experiment = std::make_shared<Experiment>(std::move(spec));
    return [experiment](SqsSimulation& sim) {
        experiment->buildInto(sim);
    };
}

SqsConfig
parallelSqs(double accuracy)
{
    SqsConfig cfg;
    cfg.accuracy = accuracy;
    cfg.warmupSamples = 1000;
    cfg.calibrationSamples = 5000;
    return cfg;
}

TEST(Parallel, MergedEstimateMatchesSerial)
{
    const double accuracy = 0.05;
    // Serial reference.
    ExperimentSpec serialSpec;
    serialSpec.workload = scaledToLoad(makeWorkload("google"), 16, 0.5);
    serialSpec.coresPerServer = 16;
    serialSpec.sqs.accuracy = accuracy;
    serialSpec.simBackend = SimBackend::Des;
    const SqsResult serial = Experiment(serialSpec.clone()).run(101);
    ASSERT_TRUE(serial.converged);

    ParallelConfig cfg;
    cfg.slaves = 4;
    cfg.sqs = parallelSqs(accuracy);
    ParallelRunner runner(googleBuilder(accuracy), cfg);
    const ParallelResult parallel = runner.run(202);
    ASSERT_TRUE(parallel.converged);

    const MetricEstimate& serialEst = serial.estimates[0];
    const MetricEstimate& parallelEst = parallel.estimates[0];
    // Both are 95% CI estimates at E=5%; they must agree within ~2E.
    EXPECT_NEAR(parallelEst.mean / serialEst.mean, 1.0, 2 * accuracy);
    EXPECT_NEAR(parallelEst.quantiles[0].value
                    / serialEst.quantiles[0].value,
                1.0, 3 * accuracy);
}

TEST(Parallel, AggregateSampleMeetsRequirement)
{
    ParallelConfig cfg;
    cfg.slaves = 3;
    cfg.sqs = parallelSqs(0.05);
    ParallelRunner runner(googleBuilder(0.05), cfg);
    const ParallelResult result = runner.run(7);
    ASSERT_TRUE(result.converged);
    const MetricEstimate& est = result.estimates[0];
    EXPECT_GE(est.accepted, est.required);
    EXPECT_GT(est.accepted, 0u);
}

TEST(Parallel, PhaseAccountingPopulated)
{
    ParallelConfig cfg;
    cfg.slaves = 2;
    cfg.sqs = parallelSqs(0.1);
    ParallelRunner runner(googleBuilder(0.1), cfg);
    const ParallelResult result = runner.run(11);
    EXPECT_GT(result.masterCalibrationEvents, 0u);
    ASSERT_EQ(result.slaveCalibrationEvents.size(), 2u);
    ASSERT_EQ(result.slaveTotalEvents.size(), 2u);
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_GT(result.slaveCalibrationEvents[s], 0u);
        EXPECT_GE(result.slaveTotalEvents[s],
                  result.slaveCalibrationEvents[s]);
    }
    EXPECT_GT(result.totalEvents, result.masterCalibrationEvents);
    EXPECT_GT(result.wallSeconds, 0.0);
}

TEST(Parallel, ResultReportsTheBackendThatRan)
{
    ParallelConfig cfg;
    cfg.slaves = 2;
    cfg.sqs = parallelSqs(0.1);
    // A plain FCFS station: `auto` resolves to the recurrence.
    ParallelRunner runner(googleBuilder(0.1, SimBackend::Auto), cfg);
    const ParallelResult result = runner.run(11);
    EXPECT_EQ(result.backend, SimBackend::Recurrence);
    const SqsResult serialShaped = result.toSqsResult();
    EXPECT_EQ(serialShaped.backend, SimBackend::Recurrence);
    EXPECT_EQ(serialShaped.events, result.totalEvents);
    EXPECT_EQ(serialShaped.converged, result.converged);
}

TEST(Parallel, ModeledSpeedupBehavesLikeAmdahl)
{
    ParallelResult result;
    result.masterCalibrationEvents = 1000;
    result.slaveTotalEvents = {5000, 4000};
    // Serial run needed 20000 events; critical path = 1000 + 5000.
    EXPECT_NEAR(result.modeledSpeedup(20000), 20000.0 / 6000.0, 1e-12);
    // Degenerate: no events.
    ParallelResult empty;
    EXPECT_DOUBLE_EQ(empty.modeledSpeedup(1000), 0.0);
}

TEST(Parallel, MoreSlavesMeansFewerSamplesEach)
{
    auto maxSlaveEvents = [](std::size_t slaves) {
        ParallelConfig cfg;
        cfg.slaves = slaves;
        cfg.sqs = parallelSqs(0.02);
        cfg.slaveBatchEvents = 5000;
        ParallelRunner runner(googleBuilder(0.02), cfg);
        const ParallelResult result = runner.run(13);
        std::uint64_t worst = 0;
        for (std::uint64_t events : result.slaveTotalEvents)
            worst = std::max(worst, events);
        return worst;
    };
    const auto one = maxSlaveEvents(1);
    const auto four = maxSlaveEvents(4);
    // Measurement is sharded; with calibration overhead the reduction is
    // sub-linear but must be substantial.
    EXPECT_LT(four, (3 * one) / 4);
}

TEST(ParallelDeathTest, Misconfiguration)
{
    ParallelConfig cfg;
    cfg.slaves = 0;
    EXPECT_EXIT(ParallelRunner(googleBuilder(0.1), cfg),
                ::testing::ExitedWithCode(1), "at least one slave");
    EXPECT_EXIT(ParallelRunner(nullptr, ParallelConfig{}),
                ::testing::ExitedWithCode(1), "model builder");
}

} // namespace
} // namespace bighouse
