/**
 * @file
 * Tests for the SQS runner: statistically-terminated runs, safety valves,
 * metric defaults, and end-to-end estimate fidelity on an M/M/1 system
 * with a known closed form.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/sqs.hh"
#include "distribution/basic.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"

namespace bighouse {
namespace {

/** Wire an M/M/1 queue whose response times feed `metricId`. */
struct Mm1Model
{
    std::unique_ptr<Server> server;
    std::unique_ptr<Source> source;
};

void
buildMm1(SqsSimulation& sim, double lambda, double mu,
         StatsCollection::MetricId metricId)
{
    auto model = std::make_shared<Mm1Model>();
    model->server = std::make_unique<Server>(sim.engine(), 1);
    StatsCollection& stats = sim.stats();
    model->server->setCompletionHandler(
        [&stats, metricId](const Task& task) {
            stats.record(metricId, task.responseTime());
        });
    model->source = std::make_unique<Source>(
        sim.engine(), *model->server, std::make_unique<Exponential>(lambda),
        std::make_unique<Exponential>(mu), sim.rootRng().split());
    model->source->start();
    sim.holdModel(std::move(model));
}

SqsConfig
quickConfig()
{
    SqsConfig cfg;
    cfg.warmupSamples = 2000;
    cfg.calibrationSamples = 5000;
    cfg.accuracy = 0.05;
    return cfg;
}

TEST(SqsSimulation, Mm1ConvergesToClosedForm)
{
    // lambda = 0.5, mu = 1: T ~ Exp(0.5); E[T] = 2, p95 = ln(20)/0.5.
    SqsSimulation sim(quickConfig(), 42);
    const auto id = sim.addMetric("response_time");
    buildMm1(sim, 0.5, 1.0, id);
    const SqsResult result = sim.run();
    ASSERT_TRUE(result.converged);
    ASSERT_EQ(result.estimates.size(), 1u);
    const MetricEstimate& est = result.estimates[0];
    EXPECT_NEAR(est.mean, 2.0, 0.2);
    ASSERT_EQ(est.quantiles.size(), 1u);
    EXPECT_NEAR(est.quantiles[0].value, std::log(20.0) / 0.5, 0.6);
    EXPECT_GT(result.events, 0u);
    EXPECT_GT(result.simulatedTime, 0.0);
}

TEST(SqsSimulation, TighterAccuracyRunsLonger)
{
    auto eventsFor = [](double accuracy) {
        SqsConfig cfg = quickConfig();
        cfg.accuracy = accuracy;
        SqsSimulation sim(cfg, 7);
        const auto id = sim.addMetric("response_time");
        buildMm1(sim, 0.5, 1.0, id);
        return sim.run().events;
    };
    const auto loose = eventsFor(0.10);
    const auto tight = eventsFor(0.02);
    EXPECT_GT(tight, 3 * loose);
}

TEST(SqsSimulation, MaxEventsSafetyValve)
{
    SqsConfig cfg = quickConfig();
    cfg.accuracy = 0.001;       // would need a very long run
    cfg.maxEvents = 50000;
    cfg.batchEvents = 1000;
    SqsSimulation sim(cfg, 9);
    const auto id = sim.addMetric("response_time");
    buildMm1(sim, 0.5, 1.0, id);
    const SqsResult result = sim.run();
    EXPECT_FALSE(result.converged);
    EXPECT_GE(result.events, 50000u);
    EXPECT_LT(result.events, 60000u);
}

TEST(SqsSimulation, MaxSimTimeSafetyValve)
{
    SqsConfig cfg = quickConfig();
    cfg.accuracy = 0.001;
    cfg.maxSimTime = 100.0;
    cfg.batchEvents = 1000;
    SqsSimulation sim(cfg, 10);
    const auto id = sim.addMetric("response_time");
    buildMm1(sim, 0.5, 1.0, id);
    const SqsResult result = sim.run();
    EXPECT_FALSE(result.converged);
    // The valve is checked at batch granularity: the clock is past the
    // horizon but bounded by one batch of (sparse) events.
    EXPECT_GE(result.simulatedTime, 100.0);
    EXPECT_LT(result.simulatedTime, 5000.0);
}

TEST(SqsSimulation, DrainedModelStopsGracefully)
{
    SqsSimulation sim(quickConfig(), 11);
    const auto id = sim.addMetric("metric");
    // A model that produces only 10 observations then goes quiet.
    for (int i = 0; i < 10; ++i) {
        sim.engine().schedule(static_cast<Time>(i), [&sim, id] {
            sim.stats().record(id, 1.0);
        });
    }
    const SqsResult result = sim.run();
    EXPECT_FALSE(result.converged);
}

TEST(SqsSimulation, DefaultMetricSpecReflectsConfig)
{
    SqsConfig cfg = quickConfig();
    cfg.accuracy = 0.01;
    cfg.quantiles = {0.5, 0.99};
    SqsSimulation sim(cfg, 12);
    const MetricSpec spec = sim.defaultMetricSpec("x");
    EXPECT_EQ(spec.name, "x");
    EXPECT_DOUBLE_EQ(spec.target.accuracy, 0.01);
    EXPECT_EQ(spec.warmupSamples, cfg.warmupSamples);
    EXPECT_EQ(spec.calibrationSamples, cfg.calibrationSamples);
    ASSERT_EQ(spec.quantiles.size(), 2u);
}

TEST(SqsSimulation, SnapshotTracksProgressWithoutConsuming)
{
    SqsSimulation sim(quickConfig(), 21);
    const auto id = sim.addMetric("response_time");
    buildMm1(sim, 0.5, 1.0, id);
    const SqsResult before = sim.snapshot();
    EXPECT_EQ(before.events, 0u);
    EXPECT_FALSE(before.converged);

    sim.runBatch(5000);
    const SqsResult mid = sim.snapshot();
    EXPECT_EQ(mid.events, 5000u);
    EXPECT_GT(mid.simulatedTime, 0.0);
    ASSERT_EQ(mid.estimates.size(), 1u);

    // Snapshots are read-only: a second one is identical.
    const SqsResult again = sim.snapshot();
    EXPECT_EQ(again.events, mid.events);
    EXPECT_DOUBLE_EQ(again.estimates[0].mean, mid.estimates[0].mean);
}

TEST(SqsSimulation, SameSeedSameResult)
{
    auto runOnce = [] {
        SqsSimulation sim(quickConfig(), 77);
        const auto id = sim.addMetric("response_time");
        buildMm1(sim, 0.5, 1.0, id);
        return sim.run();
    };
    const SqsResult a = runOnce();
    const SqsResult b = runOnce();
    EXPECT_EQ(a.events, b.events);
    EXPECT_DOUBLE_EQ(a.estimates[0].mean, b.estimates[0].mean);
    EXPECT_DOUBLE_EQ(a.estimates[0].quantiles[0].value,
                     b.estimates[0].quantiles[0].value);
}

TEST(SqsSimulationDeathTest, MisuseIsFatal)
{
    SqsSimulation sim(quickConfig(), 13);
    EXPECT_DEATH(sim.run(), "no output metrics");
    SqsConfig bad = quickConfig();
    bad.batchEvents = 0;
    EXPECT_EXIT(SqsSimulation(bad, 1), ::testing::ExitedWithCode(1),
                "batchEvents");
}

} // namespace
} // namespace bighouse
