/**
 * @file
 * Tests for quantile confidence intervals (binomial order-statistic
 * bounds mapped through the histogram CDF) and the power-of-two-choices
 * dispatch discipline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "base/random.hh"
#include "datacenter/load_balancer.hh"
#include "distribution/basic.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"
#include "sim/engine.hh"
#include "stats/metric.hh"

namespace bighouse {
namespace {

MetricSpec
spec(double accuracy = 0.05)
{
    MetricSpec s;
    s.name = "m";
    s.warmupSamples = 0;
    s.calibrationSamples = 1000;
    s.target = ConfidenceSpec{accuracy, 0.95};
    s.quantiles = {0.95};
    return s;
}

TEST(QuantileCi, BoundsBracketTheEstimate)
{
    OutputMetric metric(spec());
    Rng rng(1);
    for (int i = 0; i < 50000; ++i)
        metric.record(rng.exponential(1.0));
    const MetricEstimate est = metric.estimate();
    ASSERT_EQ(est.quantiles.size(), 1u);
    const QuantileEstimate& qe = est.quantiles[0];
    EXPECT_LT(qe.lower, qe.value);
    EXPECT_GT(qe.upper, qe.value);
    // Exp(1) p95 = ln 20 ~ 2.996 should sit inside the interval.
    EXPECT_LT(qe.lower, std::log(20.0));
    EXPECT_GT(qe.upper, std::log(20.0));
}

TEST(QuantileCi, IntervalShrinksWithSampleSize)
{
    auto widthAfter = [](int n) {
        OutputMetric metric(spec(1e-9));  // never converge; keep sampling
        Rng rng(2);
        for (int i = 0; i < n; ++i)
            metric.record(rng.exponential(1.0));
        const auto qe = metric.estimate().quantiles[0];
        return qe.upper - qe.lower;
    };
    const double small = widthAfter(5000);
    const double large = widthAfter(200000);
    EXPECT_GT(small, large);
    // Binomial half-width scales ~1/sqrt(n): 40x samples -> ~6.3x tighter.
    EXPECT_NEAR(small / large, std::sqrt(40.0), std::sqrt(40.0) * 0.5);
}

TEST(QuantileCi, CoverageAcrossReplications)
{
    // 40 independent small samples: the true p95 should fall inside the
    // reported interval in roughly 95% of them.
    int covered = 0;
    constexpr int kRuns = 40;
    const double truth = std::log(20.0);
    for (int r = 0; r < kRuns; ++r) {
        OutputMetric metric(spec(1e-9));
        Rng rng(100 + static_cast<std::uint64_t>(r));
        for (int i = 0; i < 20000; ++i)
            metric.record(rng.exponential(1.0));
        const auto qe = metric.estimate().quantiles[0];
        covered += (truth >= qe.lower && truth <= qe.upper);
    }
    EXPECT_GE(covered, 33);  // ~95% of 40, with slack for binomial noise
}

Task
makeTask(std::uint64_t id)
{
    Task task;
    task.id = id;
    task.size = 1.0;
    task.remaining = 1.0;
    return task;
}

TEST(PowerOfTwo, ParsesAndRoutes)
{
    EXPECT_EQ(parseDispatch("p2c"), Dispatch::PowerOfTwo);
    EXPECT_EQ(parseDispatch("PowerOfTwo"), Dispatch::PowerOfTwo);

    Engine sim;
    Server a(sim, 1), b(sim, 1), c(sim, 1);
    LoadBalancer lb({&a, &b, &c}, Dispatch::PowerOfTwo, Rng(3));
    for (std::uint64_t i = 0; i < 300; ++i)
        lb.accept(makeTask(i));
    // All servers get some share (probabilistic but overwhelmingly so).
    for (std::uint64_t count : lb.perServerCounts())
        EXPECT_GT(count, 50u);
    EXPECT_EQ(lb.routedCount(), 300u);
}

TEST(PowerOfTwo, BeatsRandomOnTailWaiting)
{
    // Classic result: d=2 choices dramatically shortens queues vs. pure
    // random at the same load.
    auto maxQueueDepth = [](Dispatch policy) {
        Engine sim;
        std::vector<std::unique_ptr<Server>> servers;
        std::vector<Server*> pointers;
        for (int i = 0; i < 10; ++i) {
            servers.push_back(std::make_unique<Server>(sim, 1));
            pointers.push_back(servers.back().get());
        }
        LoadBalancer lb(pointers, policy, Rng(4));
        Source source(sim, lb, std::make_unique<Exponential>(9.0),
                      std::make_unique<Exponential>(1.0), Rng(5));
        source.start();
        std::size_t worst = 0;
        // Sample queue depths periodically.
        for (int tick = 1; tick <= 400; ++tick) {
            sim.runUntil(static_cast<Time>(tick));
            for (Server* server : pointers)
                worst = std::max(worst, server->outstanding());
        }
        return worst;
    };
    EXPECT_LT(maxQueueDepth(Dispatch::PowerOfTwo),
              maxQueueDepth(Dispatch::Random));
}

TEST(PowerOfTwo, SingleServerDegenerate)
{
    Engine sim;
    Server only(sim, 1);
    LoadBalancer lb({&only}, Dispatch::PowerOfTwo, Rng(6));
    lb.accept(makeTask(1));
    EXPECT_EQ(only.outstanding(), 1u);
}

} // namespace
} // namespace bighouse
