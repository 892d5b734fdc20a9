/**
 * @file
 * RecurrenceBackend validation — the three referees promised by
 * docs/backends.md:
 *
 *  1. Exactness: on a single-core single-station model the recurrence
 *     draws the identical (gap, demand) stream as the DES Source and
 *     feeds the statistics pipeline the identical observation sequence —
 *     so two pipelines, one fed per-sample from DES-captured task times
 *     and one fed by the backend itself, must match bit for bit.
 *  2. Analytic oracles: M/M/1, M/M/4 and M/G/1 runs under the forced
 *     recurrence backend must reproduce the closed-form mean/tail values
 *     (the same battery test_queueing_theory.cc runs against the DES).
 *  3. Cross-backend distributional agreement: a shared-seed k-core run
 *     under each backend yields the same response-time distribution —
 *     Kolmogorov-Smirnov distance between the two measurement histograms
 *     (via Histogram::cdfAt) below the two-sample critical value.
 *
 * Plus the static eligibility analyzer: every example config resolves to
 * the expected backend under `auto`, and forcing `recurrence` onto an
 * inexpressible network dies with an actionable message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/backend_select.hh"
#include "core/experiment.hh"
#include "core/sqs.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"
#include "sim/recurrence_backend.hh"
#include "stats/collection.hh"
#include "workload/workload.hh"

namespace bighouse {
namespace {

/** Erlang-C probability of waiting for an M/M/k queue (a = lambda/mu). */
double
erlangC(unsigned k, double offered)
{
    double sum = 0.0;
    double term = 1.0;
    for (unsigned n = 0; n < k; ++n) {
        sum += term;
        term *= offered / static_cast<double>(n + 1);
    }
    const double rho = offered / static_cast<double>(k);
    return term / ((1.0 - rho) * sum + term);
}

/** A one-station spec with explicit moments; backend as requested. */
ExperimentSpec
stationSpec(DistPtr interarrival, DistPtr service, unsigned cores,
            SimBackend backend)
{
    ExperimentSpec spec;
    spec.workload =
        Workload{"oracle", std::move(interarrival), std::move(service)};
    spec.servers = 1;
    spec.coresPerServer = cores;
    spec.recordWaitingTime = true;
    spec.simBackend = backend;
    spec.sqs.warmupSamples = 5000;
    spec.sqs.calibrationSamples = 5000;
    spec.sqs.accuracy = 0.05;
    spec.sqs.maxEvents = 40'000'000;
    return spec;
}

// ---------------------------------------------------------------------
// 1. Exactness: recurrence-generated observations == DES task times.
// ---------------------------------------------------------------------

/** Capture the first `count` per-task (sojourn, wait>0) pairs from a DES
 *  M/G/1 run seeded like the recurrence station below. */
void
captureDesTaskTimes(std::uint64_t seed, std::size_t count,
                    std::vector<double>& sojourns,
                    std::vector<double>& waits)
{
    SqsSimulation sim(SqsConfig{}, seed);
    auto server = std::make_shared<Server>(sim.engine(), 1);
    server->setCompletionHandler(
        [&sojourns, &waits, count](const Task& task) {
            // k=1 FCFS completes in arrival order, so the first `count`
            // completions are exactly the first `count` tasks.
            if (sojourns.size() >= count)
                return;
            sojourns.push_back(task.responseTime());
            if (task.waitingTime() > 0.0)
                waits.push_back(task.waitingTime());
        });
    auto source = std::make_shared<Source>(
        sim.engine(), *server, std::make_unique<Exponential>(0.7),
        fitMeanCv(1.0, 2.0), sim.rootRng().split());
    source->start();
    sim.holdModel(server);
    sim.holdModel(source);
    while (sojourns.size() < count)
        sim.engine().run(10000);
}

MetricSpec
pinnedMetricSpec(const char* name)
{
    MetricSpec spec;
    spec.name = name;
    spec.warmupSamples = 500;
    spec.calibrationSamples = 1000;
    return spec;
}

/** Assert two metrics hold bitwise-identical state. */
void
expectIdenticalMetrics(const OutputMetric& a, const OutputMetric& b)
{
    EXPECT_EQ(a.offeredCount(), b.offeredCount());
    EXPECT_EQ(a.acceptedCount(), b.acceptedCount());
    EXPECT_EQ(a.lag(), b.lag());
    EXPECT_EQ(a.phase(), b.phase());
    const MetricEstimate ea = a.estimate();
    const MetricEstimate eb = b.estimate();
    EXPECT_EQ(ea.mean, eb.mean);
    EXPECT_EQ(ea.stddev, eb.stddev);
    EXPECT_EQ(ea.min, eb.min);
    EXPECT_EQ(ea.max, eb.max);
    EXPECT_EQ(a.sample().histogram.serialize(),
              b.sample().histogram.serialize());
}

TEST(RecurrenceExact, SingleCoreSojournsBitIdenticalToDes)
{
    const std::uint64_t seed = 2026;
    const std::size_t tasks = 20000;
    std::vector<double> desSojourns, desWaits;
    captureDesTaskTimes(seed, tasks, desSojourns, desWaits);
    ASSERT_EQ(desSojourns.size(), tasks);

    // Pipeline A: the DES-captured sojourns, recorded one at a time.
    StatsCollection perSample;
    const auto idA = perSample.addMetric(pinnedMetricSpec("response_time"));
    for (double x : desSojourns)
        perSample.record(idA, x);

    // Pipeline B: the recurrence backend generating its own observations
    // from the same split stream, recording through recordMany().
    StatsCollection bulk;
    const auto idB = bulk.addMetric(pinnedMetricSpec("response_time"));
    SqsSimulation twin(SqsConfig{}, seed);
    RecurrenceBackend backend(bulk);
    RecurrenceStationSpec station;
    station.interarrival = std::make_unique<Exponential>(0.7);
    station.service = fitMeanCv(1.0, 2.0);
    station.rng = twin.rootRng().split();
    backend.addStation(std::move(station));
    backend.recordResponseTime(idB);
    EXPECT_EQ(backend.step(tasks), tasks);

    expectIdenticalMetrics(perSample.metric(idA), bulk.metric(idB));
}

TEST(RecurrenceExact, SingleCoreWaitsBitIdenticalToDes)
{
    const std::uint64_t seed = 99;
    const std::size_t tasks = 20000;
    std::vector<double> desSojourns, desWaits;
    captureDesTaskTimes(seed, tasks, desSojourns, desWaits);
    ASSERT_GT(desWaits.size(), tasks / 2);

    StatsCollection perSample;
    const auto idA = perSample.addMetric(pinnedMetricSpec("waiting_time"));
    for (double x : desWaits)
        perSample.record(idA, x);

    StatsCollection bulk;
    const auto idB = bulk.addMetric(pinnedMetricSpec("waiting_time"));
    SqsSimulation twin(SqsConfig{}, seed);
    RecurrenceBackend backend(bulk);
    RecurrenceStationSpec station;
    station.interarrival = std::make_unique<Exponential>(0.7);
    station.service = fitMeanCv(1.0, 2.0);
    station.rng = twin.rootRng().split();
    backend.addStation(std::move(station));
    backend.recordWaitingTime(idB);
    backend.step(tasks);

    expectIdenticalMetrics(perSample.metric(idA), bulk.metric(idB));
}

// ---------------------------------------------------------------------
// 2. Analytic oracles under the forced recurrence backend.
// ---------------------------------------------------------------------

TEST(RecurrenceOracle, Mm1MeanAndTail)
{
    const double rho = 0.7;
    ExperimentSpec spec =
        stationSpec(std::make_unique<Exponential>(rho),
                    std::make_unique<Exponential>(1.0), 1,
                    SimBackend::Recurrence);
    const SqsResult result = Experiment(std::move(spec)).run(11);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.backend, SimBackend::Recurrence);
    const MetricEstimate& response = result.estimates[0];
    const double expectedMean = 1.0 / (1.0 - rho);
    const double expectedP95 = std::log(20.0) / (1.0 - rho);
    EXPECT_NEAR(response.mean / expectedMean, 1.0, 0.1);
    EXPECT_NEAR(response.quantiles[0].value / expectedP95, 1.0, 0.12);
    // The metric keeps only waits > 0; for M/M/1 the conditional wait is
    // exponential with mean 1 / (mu - lambda).
    const MetricEstimate& waiting = result.estimates[1];
    EXPECT_NEAR(waiting.mean / (1.0 / (1.0 - rho)), 1.0, 0.12);
}

TEST(RecurrenceOracle, Mm4WaitMatchesErlangC)
{
    const unsigned k = 4;
    const double lambda = 2.8;  // rho = 0.7 at mu = 1
    ExperimentSpec spec =
        stationSpec(std::make_unique<Exponential>(lambda),
                    std::make_unique<Exponential>(1.0), k,
                    SimBackend::Recurrence);
    const SqsResult result = Experiment(std::move(spec)).run(17);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.backend, SimBackend::Recurrence);
    // Mean wait of queued customers: the recorded metric keeps only
    // waits > 0, so the oracle is W|wait>0 = 1 / (k mu - lambda).
    const MetricEstimate& waiting = result.estimates[1];
    const double expectedQueuedWait = 1.0 / (k * 1.0 - lambda);
    EXPECT_NEAR(waiting.mean / expectedQueuedWait, 1.0, 0.12);
    // And the response-time mean: E[T] = E[S] + C * W|wait>0.
    const double expectedMean =
        1.0 + erlangC(k, lambda) * expectedQueuedWait;
    EXPECT_NEAR(result.estimates[0].mean / expectedMean, 1.0, 0.1);
}

TEST(RecurrenceOracle, Mg1WaitMatchesPollaczekKhinchine)
{
    const double lambda = 0.7;
    const double meanS = 1.0;
    const double cv = 2.0;
    ExperimentSpec spec = stationSpec(
        std::make_unique<Exponential>(lambda), fitMeanCv(meanS, cv), 1,
        SimBackend::Recurrence);
    const SqsResult result = Experiment(std::move(spec)).run(23);
    ASSERT_TRUE(result.converged);
    const double secondMoment = meanS * meanS * (1.0 + cv * cv);
    const double rho = lambda * meanS;
    const double pkWait = lambda * secondMoment / (2.0 * (1.0 - rho));
    // The metric keeps waits > 0 only; P(wait > 0) = rho for M/G/1.
    const MetricEstimate& waiting = result.estimates[1];
    EXPECT_NEAR(waiting.mean / (pkWait / rho), 1.0, 0.15);
}

// ---------------------------------------------------------------------
// 3. Cross-backend distributional agreement (shared seed, k > 1).
// ---------------------------------------------------------------------

/** Run one spec; returns the response-time histogram, fills `result`. */
Histogram
runWithHistogram(ExperimentSpec spec, std::uint64_t seed, SqsResult& result)
{
    const SqsConfig cfg = spec.sqs;
    SqsSimulation sim(cfg, seed);
    const Experiment experiment(std::move(spec));
    experiment.buildInto(sim);
    result = sim.run();
    return sim.stats().metricByName("response_time").sample().histogram;
}

/** Max |F_a - F_b| over both histograms' support (evaluated densely). */
double
ksDistance(const Histogram& a, const Histogram& b)
{
    const double lo = std::min(a.observedMin(), b.observedMin());
    const double hi = std::max(a.observedMax(), b.observedMax());
    double worst = 0.0;
    const int points = 2000;
    for (int i = 0; i <= points; ++i) {
        const double x = lo + (hi - lo) * i / points;
        worst = std::max(worst, std::abs(a.cdfAt(x) - b.cdfAt(x)));
    }
    return worst;
}

TEST(RecurrenceAgreement, SharedSeedKsAgainstDesOnMm4)
{
    const std::uint64_t seed = 404;
    SqsResult des, rec;
    const Histogram desHist = runWithHistogram(
        stationSpec(std::make_unique<Exponential>(2.8),
                    std::make_unique<Exponential>(1.0), 4,
                    SimBackend::Des),
        seed, des);
    const Histogram recHist = runWithHistogram(
        stationSpec(std::make_unique<Exponential>(2.8),
                    std::make_unique<Exponential>(1.0), 4,
                    SimBackend::Recurrence),
        seed, rec);
    ASSERT_TRUE(des.converged);
    ASSERT_TRUE(rec.converged);
    EXPECT_EQ(des.backend, SimBackend::Des);
    EXPECT_EQ(rec.backend, SimBackend::Recurrence);

    // Two-sample KS: with the accepted counts both in the thousands the
    // 1% critical value is ~1.63 * sqrt(2/n); leave generous slack.
    const double n = static_cast<double>(
        std::min(des.estimates[0].accepted, rec.estimates[0].accepted));
    ASSERT_GT(n, 1000.0);
    const double critical = 1.63 * std::sqrt(2.0 / n);
    EXPECT_LT(ksDistance(desHist, recHist), std::max(0.05, 3 * critical));
    // Means agree within the joint confidence width.
    const double width = des.estimates[0].meanHalfWidth
                         + rec.estimates[0].meanHalfWidth;
    EXPECT_NEAR(des.estimates[0].mean, rec.estimates[0].mean, 2 * width);
}

TEST(RecurrenceAgreement, SharedSeedKsAgainstDesOnMg1)
{
    const std::uint64_t seed = 505;
    SqsResult des, rec;
    const Histogram desHist = runWithHistogram(
        stationSpec(std::make_unique<Exponential>(0.7),
                    fitMeanCv(1.0, 2.0), 1, SimBackend::Des),
        seed, des);
    const Histogram recHist = runWithHistogram(
        stationSpec(std::make_unique<Exponential>(0.7),
                    fitMeanCv(1.0, 2.0), 1, SimBackend::Recurrence),
        seed, rec);
    ASSERT_TRUE(des.converged);
    ASSERT_TRUE(rec.converged);
    const double n = static_cast<double>(
        std::min(des.estimates[0].accepted, rec.estimates[0].accepted));
    const double critical = 1.63 * std::sqrt(2.0 / n);
    EXPECT_LT(ksDistance(desHist, recHist), std::max(0.05, 3 * critical));
}

// ---------------------------------------------------------------------
// Eligibility analysis.
// ---------------------------------------------------------------------

ExperimentSpec
plainFcfsSpec()
{
    ExperimentSpec spec;
    spec.workload = Workload{"plain", std::make_unique<Exponential>(0.5),
                             std::make_unique<Exponential>(1.0)};
    return spec;
}

TEST(BackendSelect, PlainFcfsIsEligible)
{
    const ExperimentSpec spec = plainFcfsSpec();
    EXPECT_TRUE(analyzeRecurrenceEligibility(spec).eligible());
    EXPECT_EQ(resolveSimBackend(spec), SimBackend::Recurrence);
}

TEST(BackendSelect, EachBlockingFeatureIsNamed)
{
    {
        ExperimentSpec spec = plainFcfsSpec();
        spec.serverModel = ServerModel::ProcessorSharing;
        const BackendEligibility e = analyzeRecurrenceEligibility(spec);
        ASSERT_EQ(e.blockers.size(), 1u);
        EXPECT_NE(e.blockers[0].find("serverModel"), std::string::npos);
        EXPECT_EQ(resolveSimBackend(spec), SimBackend::Des);
    }
    {
        ExperimentSpec spec = plainFcfsSpec();
        spec.dispatch = Dispatch::JoinShortestQueue;
        const BackendEligibility e = analyzeRecurrenceEligibility(spec);
        ASSERT_EQ(e.blockers.size(), 1u);
        EXPECT_NE(e.blockers[0].find("dispatch"), std::string::npos);
    }
    {
        ExperimentSpec spec = plainFcfsSpec();
        spec.failures.emplace();
        const BackendEligibility e = analyzeRecurrenceEligibility(spec);
        ASSERT_EQ(e.blockers.size(), 1u);
        EXPECT_NE(e.blockers[0].find("failures"), std::string::npos);
    }
    {
        ExperimentSpec spec = plainFcfsSpec();
        spec.capping.emplace();
        const BackendEligibility e = analyzeRecurrenceEligibility(spec);
        ASSERT_EQ(e.blockers.size(), 1u);
        EXPECT_NE(e.blockers[0].find("capping"), std::string::npos);
    }
}

TEST(BackendSelect, ForcedDesAlwaysWins)
{
    ExperimentSpec spec = plainFcfsSpec();
    spec.simBackend = SimBackend::Des;
    EXPECT_EQ(resolveSimBackend(spec), SimBackend::Des);
}

TEST(BackendSelectDeathTest, ForcedRecurrenceOnIneligibleSpecDies)
{
    ExperimentSpec spec = plainFcfsSpec();
    spec.dispatch = Dispatch::JoinShortestQueue;
    spec.simBackend = SimBackend::Recurrence;
    EXPECT_EXIT(resolveSimBackend(spec), ::testing::ExitedWithCode(1),
                "cannot express this experiment");
    EXPECT_EXIT(resolveSimBackend(spec), ::testing::ExitedWithCode(1),
                "did you mean sim.backend");
}

TEST(BackendSelectDeathTest, ForcedRecurrenceViaConfigDies)
{
    const Config config = Config::fromString(R"({
        "workload": {
            "name": "smoke",
            "interarrival": {"mean": 0.02, "cv": 1.0},
            "service": {"mean": 0.01, "cv": 1.0}
        },
        "cluster": {"servers": 2, "cores": 1},
        "dispatch": "jsq",
        "sim": {"backend": "recurrence"}
    })");
    const ExperimentSpec spec = Experiment::specFromConfig(config);
    SqsConfig cfg;
    cfg.maxEvents = 1000;
    EXPECT_EXIT(
        {
            SqsSimulation sim(cfg, 1);
            Experiment(spec.clone()).buildInto(sim);
        },
        ::testing::ExitedWithCode(1), "dispatch");
}

/**
 * Every example config must resolve to a known backend under `auto` —
 * and every new example must extend this table, so eligibility drift in
 * either direction is caught.
 */
TEST(BackendSelect, ExampleConfigsResolveAsDocumented)
{
    const std::map<std::string, SimBackend> expected = {
        {"dreamweaver_leaf.json", SimBackend::Des},   // serverModel
        {"failure_campaign.json", SimBackend::Des},   // failures
        {"failure_smoke.json", SimBackend::Des},      // failures
        {"failure_storm.json", SimBackend::Des},      // failures
        {"fig5_campaign.json", SimBackend::Recurrence},
        {"fig8_campaign.json", SimBackend::Recurrence},
        {"google_leaf.json", SimBackend::Recurrence}, // cpuSlowdown ok
        {"jsq_cluster.json", SimBackend::Des},        // dispatch
        {"power_capping.json", SimBackend::Des},      // capping
        {"smoke_campaign.json", SimBackend::Recurrence},
        {"smoke_experiment.json", SimBackend::Recurrence},
    };
    std::size_t seen = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(EXAMPLES_CONFIG_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        const std::string name = entry.path().filename().string();
        const auto it = expected.find(name);
        ASSERT_NE(it, expected.end())
            << name << " is not in the expected-backend table; add it";
        ++seen;
        Config config = Config::fromFile(entry.path().string());
        // Campaign files wrap their experiment in a `base` section.
        if (config.has("campaign"))
            config = config.requireSection("base");
        const ExperimentSpec spec = Experiment::specFromConfig(config);
        EXPECT_EQ(spec.simBackend, SimBackend::Auto)
            << name << ": examples should leave sim.backend at auto";
        EXPECT_EQ(resolveSimBackend(spec), it->second) << name;
    }
    EXPECT_EQ(seen, expected.size());
}

} // namespace
} // namespace bighouse
