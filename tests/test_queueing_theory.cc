/**
 * @file
 * Integration suite: the full SQS stack (source -> server -> metric ->
 * convergence) validated against closed-form queueing theory. This is the
 * repo's ground-truth battery: if the engine, server model, sampling
 * machinery, or convergence math drifted, these comparisons would break.
 *
 *  - M/M/1: E[T] = 1/(mu - lambda); T ~ Exp(mu - lambda) so the p95 is
 *    ln(20)/(mu - lambda).
 *  - M/G/1: Pollaczek-Khinchine mean wait W = lambda E[S^2] / (2 (1-rho)).
 *  - M/M/k: Erlang-C waiting probability; W = C / (k mu - lambda).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/sqs.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"

namespace bighouse {
namespace {

/** Erlang-C probability of waiting for an M/M/k queue. */
double
erlangC(unsigned k, double offered)
{
    // offered = lambda / mu ("a"); requires a < k.
    double sum = 0.0;
    double term = 1.0;  // a^0 / 0!
    for (unsigned n = 0; n < k; ++n) {
        sum += term;
        term *= offered / static_cast<double>(n + 1);
    }
    // term is now a^k / k!.
    const double rho = offered / static_cast<double>(k);
    return term / ((1.0 - rho) * sum + term);
}

struct QueueModel
{
    std::unique_ptr<Server> server;
    std::unique_ptr<Source> source;
};

struct MetricIds
{
    StatsCollection::MetricId response;
    StatsCollection::MetricId waiting;
};

MetricIds
buildQueue(SqsSimulation& sim, unsigned cores, DistPtr interarrival,
           DistPtr service)
{
    MetricIds ids{};
    ids.response = sim.addMetric("response_time");
    ids.waiting = sim.addMetric("waiting_time");
    auto model = std::make_shared<QueueModel>();
    model->server = std::make_unique<Server>(sim.engine(), cores);
    StatsCollection& stats = sim.stats();
    model->server->setCompletionHandler([&stats, ids](const Task& task) {
        stats.record(ids.response, task.responseTime());
        stats.record(ids.waiting, task.waitingTime());
    });
    model->source = std::make_unique<Source>(
        sim.engine(), *model->server, std::move(interarrival),
        std::move(service), sim.rootRng().split());
    model->source->start();
    sim.holdModel(std::move(model));
    return ids;
}

SqsConfig
theoryConfig()
{
    SqsConfig cfg;
    cfg.warmupSamples = 5000;
    cfg.calibrationSamples = 5000;
    cfg.accuracy = 0.05;
    // Waiting time in light traffic has huge Cv (mostly zeros); cap the
    // run so a single test can't run away. Results converge well before.
    cfg.maxEvents = 40'000'000;
    return cfg;
}

TEST(QueueingTheory, Mm1MeanAndTailAcrossLoads)
{
    for (double rho : {0.3, 0.5, 0.7, 0.8}) {
        SqsSimulation sim(theoryConfig(), 1000 + static_cast<int>(100 * rho));
        buildQueue(sim, 1, std::make_unique<Exponential>(rho),
                   std::make_unique<Exponential>(1.0));
        const SqsResult result = sim.run();
        const MetricEstimate& response = result.estimates[0];
        const double expectedMean = 1.0 / (1.0 - rho);
        const double expectedP95 = std::log(20.0) / (1.0 - rho);
        EXPECT_NEAR(response.mean / expectedMean, 1.0, 0.1)
            << "rho=" << rho;
        EXPECT_NEAR(response.quantiles[0].value / expectedP95, 1.0, 0.12)
            << "rho=" << rho;
    }
}

TEST(QueueingTheory, Mm1WaitingTimeMatchesTheory)
{
    // W = rho / (mu - lambda) for M/M/1.
    const double rho = 0.7;
    SqsSimulation sim(theoryConfig(), 21);
    buildQueue(sim, 1, std::make_unique<Exponential>(rho),
               std::make_unique<Exponential>(1.0));
    const SqsResult result = sim.run();
    const MetricEstimate& waiting = result.estimates[1];
    EXPECT_NEAR(waiting.mean / (rho / (1.0 - rho)), 1.0, 0.12);
}

struct Mg1Case
{
    double rho;
    double serviceCv;
};

class Mg1PollaczekKhinchine : public ::testing::TestWithParam<Mg1Case>
{
};

TEST_P(Mg1PollaczekKhinchine, MeanWaitMatchesFormula)
{
    const auto [rho, cv] = GetParam();
    // Unit-mean service with the requested Cv; lambda = rho.
    SqsSimulation sim(theoryConfig(),
                      3000 + static_cast<int>(rho * 100 + cv * 7));
    buildQueue(sim, 1, std::make_unique<Exponential>(rho),
               fitMeanCv(1.0, cv));
    const SqsResult result = sim.run();
    const MetricEstimate& waiting = result.estimates[1];
    // P-K: W = lambda E[S^2] / (2 (1 - rho)); E[S^2] = 1 + cv^2.
    const double expected = rho * (1.0 + cv * cv) / (2.0 * (1.0 - rho));
    EXPECT_NEAR(waiting.mean / expected, 1.0, 0.15)
        << "rho=" << rho << " cv=" << cv;
}

INSTANTIATE_TEST_SUITE_P(
    RhoCvGrid, Mg1PollaczekKhinchine,
    ::testing::Values(Mg1Case{0.5, 0.0}, Mg1Case{0.5, 0.5},
                      Mg1Case{0.5, 2.0}, Mg1Case{0.7, 0.0},
                      Mg1Case{0.7, 1.0}, Mg1Case{0.7, 2.0},
                      Mg1Case{0.3, 4.0}),
    [](const ::testing::TestParamInfo<Mg1Case>& paramInfo) {
        const int rho = static_cast<int>(paramInfo.param.rho * 100);
        const int cv = static_cast<int>(paramInfo.param.serviceCv * 10);
        return "rho" + std::to_string(rho) + "cv" + std::to_string(cv);
    });

TEST(QueueingTheory, MmkErlangCMeanWait)
{
    // M/M/4 at rho = 0.7: a = 2.8.
    const unsigned k = 4;
    const double mu = 1.0;
    const double lambda = 2.8;
    SqsSimulation sim(theoryConfig(), 55);
    buildQueue(sim, k, std::make_unique<Exponential>(lambda),
               std::make_unique<Exponential>(mu));
    const SqsResult result = sim.run();
    const MetricEstimate& response = result.estimates[0];
    const MetricEstimate& waiting = result.estimates[1];
    const double c = erlangC(k, lambda / mu);
    const double expectedWait = c / (static_cast<double>(k) * mu - lambda);
    EXPECT_NEAR(waiting.mean / expectedWait, 1.0, 0.15);
    EXPECT_NEAR(response.mean / (expectedWait + 1.0 / mu), 1.0, 0.1);
}

TEST(QueueingTheory, MmkMoreServersWaitLess)
{
    // Same total capacity and load, more servers -> shorter waits
    // (resource pooling, an M/M/k classic).
    auto meanWait = [](unsigned k) {
        SqsSimulation sim(theoryConfig(), 66);
        // rho = 0.8 per core: lambda = 0.8k, mu = 1.
        buildQueue(sim, k,
                   std::make_unique<Exponential>(0.8 * k),
                   std::make_unique<Exponential>(1.0));
        const SqsResult result = sim.run();
        return result.estimates[1].mean;
    };
    const double w1 = meanWait(1);
    const double w4 = meanWait(4);
    const double w16 = meanWait(16);
    EXPECT_GT(w1, w4);
    EXPECT_GT(w4, w16);
}

TEST(QueueingTheory, Md1HasHalfTheMm1Wait)
{
    // P-K: deterministic service halves the M/M/1 mean wait.
    const double rho = 0.7;
    auto waitFor = [&](DistPtr service) {
        SqsSimulation sim(theoryConfig(), 77);
        buildQueue(sim, 1, std::make_unique<Exponential>(rho),
                   std::move(service));
        return sim.run().estimates[1].mean;
    };
    const double wMm1 = waitFor(std::make_unique<Exponential>(1.0));
    const double wMd1 = waitFor(std::make_unique<Deterministic>(1.0));
    EXPECT_NEAR(wMd1 / wMm1, 0.5, 0.08);
}

TEST(QueueingTheory, UtilizationMatchesOfferedLoad)
{
    const double rho = 0.6;
    SqsSimulation sim(theoryConfig(), 88);
    auto model = std::make_shared<QueueModel>();
    model->server = std::make_unique<Server>(sim.engine(), 1);
    const auto id = sim.addMetric("response_time");
    StatsCollection& stats = sim.stats();
    model->server->setCompletionHandler([&stats, id](const Task& task) {
        stats.record(id, task.responseTime());
    });
    model->source = std::make_unique<Source>(
        sim.engine(), *model->server, std::make_unique<Exponential>(rho),
        std::make_unique<Exponential>(1.0), sim.rootRng().split());
    model->source->start();
    Server& server = *model->server;
    sim.holdModel(std::move(model));
    const SqsResult result = sim.run();
    EXPECT_NEAR(server.occupiedCoreSeconds() / result.simulatedTime, rho,
                0.03);
}

} // namespace
} // namespace bighouse
