/**
 * @file
 * Tests for the failure subsystem: server Up/Down dispositions, the
 * health-aware balancer, the bounded-retry/timeout path, the
 * availability/goodput metrics against the M/M/1-with-breakdowns
 * analytic answer, same-seed reproducibility of injected failures, the
 * failures config schema, JSON round-trips of FailureTotals, and the
 * parallel-merge conservation of the ensemble counters.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dist_config.hh"
#include "core/experiment.hh"
#include "core/results_io.hh"
#include "datacenter/load_balancer.hh"
#include "distribution/basic.hh"
#include "distribution/heavy_tail.hh"
#include "parallel/parallel.hh"
#include "queueing/failure.hh"
#include "queueing/retry.hh"
#include "queueing/server.hh"
#include "sim/engine.hh"

namespace bighouse {
namespace {

Task
makeTask(std::uint64_t id, Time arrival, double size)
{
    Task task;
    task.id = id;
    task.arrivalTime = arrival;
    task.size = size;
    task.remaining = size;
    return task;
}

// ---------------------------------------------------------------------
// Weibull::fromMeanShape
// ---------------------------------------------------------------------

TEST(WeibullFromMeanShape, PreservesMeanAcrossShapes)
{
    for (const double shape : {0.7, 1.0, 2.0, 3.5}) {
        const Weibull dist = Weibull::fromMeanShape(5.0, shape);
        EXPECT_NEAR(dist.mean(), 5.0, 1e-9) << "shape " << shape;
    }
}

TEST(WeibullFromMeanShape, ShapeOneIsExponential)
{
    // A shape-1 Weibull is memoryless: cv must be exactly 1.
    const Weibull dist = Weibull::fromMeanShape(2.0, 1.0);
    EXPECT_NEAR(dist.cv(), 1.0, 1e-9);
    // Wear-out hazard (shape > 1) concentrates: cv < 1.
    EXPECT_LT(Weibull::fromMeanShape(2.0, 2.0).cv(), 1.0);
}

// ---------------------------------------------------------------------
// Server Up/Down lifecycle and dispositions
// ---------------------------------------------------------------------

TEST(ServerFailure, DropLosesCoresAndQueue)
{
    Engine sim;
    Server server(sim, 1);
    std::vector<std::pair<std::uint64_t, TaskLoss>> lost;
    server.setLostHandler([&](Task t, TaskLoss loss) {
        lost.emplace_back(t.id, loss);
    });
    // One task on the core, one queued behind it.
    sim.schedule(1.0, [&] {
        server.accept(makeTask(1, sim.now(), 5.0));
        server.accept(makeTask(2, sim.now(), 5.0));
    });
    sim.schedule(2.0, [&] { server.fail(TaskDisposition::Drop); });
    sim.run();
    ASSERT_EQ(lost.size(), 2u);
    EXPECT_EQ(lost[0].second, TaskLoss::ServerFailure);
    EXPECT_EQ(lost[1].second, TaskLoss::ServerFailure);
    EXPECT_EQ(server.busyCores(), 0u);
    EXPECT_EQ(server.queueLength(), 0u);
    EXPECT_FALSE(server.isUp());
}

TEST(ServerFailure, RequeueRestartsServiceFromScratch)
{
    Engine sim;
    Server server(sim, 1);
    std::vector<Task> done;
    server.setCompletionHandler([&](const Task& t) { done.push_back(t); });
    // Starts at t=0 with 2s of work; fails at t=1 (progress lost);
    // repaired at t=3; full service restarts -> completes at t=5.
    sim.schedule(0.0, [&] { server.accept(makeTask(1, 0.0, 2.0)); });
    sim.schedule(1.0, [&] { server.fail(TaskDisposition::Requeue); });
    sim.schedule(3.0, [&] { server.repair(); });
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_DOUBLE_EQ(done[0].finishTime, 5.0);
}

TEST(ServerFailure, ResumeConservesProgress)
{
    Engine sim;
    Server server(sim, 1);
    std::vector<Task> done;
    server.setCompletionHandler([&](const Task& t) { done.push_back(t); });
    // 1s of the 2s served before the failure survives the outage:
    // repaired at t=3, the remaining 1s completes at t=4.
    sim.schedule(0.0, [&] { server.accept(makeTask(1, 0.0, 2.0)); });
    sim.schedule(1.0, [&] { server.fail(TaskDisposition::Resume); });
    sim.schedule(3.0, [&] { server.repair(); });
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_DOUBLE_EQ(done[0].finishTime, 4.0);
}

TEST(ServerFailure, RejectWhenDownBouncesArrivals)
{
    Engine sim;
    Server server(sim, 1);
    server.setRejectWhenDown(true);
    std::vector<TaskLoss> losses;
    server.setLostHandler(
        [&](Task, TaskLoss loss) { losses.push_back(loss); });
    sim.schedule(1.0, [&] { server.fail(TaskDisposition::Drop); });
    sim.schedule(2.0, [&] { server.accept(makeTask(1, sim.now(), 1.0)); });
    sim.schedule(3.0, [&] { server.repair(); });
    sim.run();
    ASSERT_EQ(losses.size(), 1u);
    EXPECT_EQ(losses[0], TaskLoss::RejectedDown);
    EXPECT_TRUE(server.isUp());
}

TEST(ServerFailure, UpDownTimeIntegralsSplitTheOutage)
{
    Engine sim;
    Server server(sim, 2);
    sim.schedule(4.0, [&] { server.fail(TaskDisposition::Drop); });
    sim.schedule(7.0, [&] { server.repair(); });
    sim.schedule(10.0, [&] {
        EXPECT_DOUBLE_EQ(server.upSeconds(), 7.0);
        EXPECT_DOUBLE_EQ(server.downSeconds(), 3.0);
    });
    sim.run();
}

TEST(FailureProcessTest, DrivesDeterministicLifecycle)
{
    auto failuresBySeed = [](std::uint64_t seed) {
        Engine sim;
        Server server(sim, 1);
        FailureCounters counters;
        FailureProcess process(
            sim, server, Exponential::fromMean(5.0).clone(),
            Exponential::fromMean(1.0).clone(), TaskDisposition::Drop,
            counters, Rng(seed));
        std::vector<Time> edges;
        process.setStateHandler(
            [&](std::size_t, bool, Time) { edges.push_back(sim.now()); });
        process.start();
        sim.runUntil(200.0);
        EXPECT_EQ(counters.failuresInjected, counters.repairsCompleted
                  + (server.isUp() ? 0u : 1u));
        EXPECT_GT(counters.failuresInjected, 10u);
        return edges;
    };
    const std::vector<Time> a = failuresBySeed(42);
    const std::vector<Time> b = failuresBySeed(42);
    const std::vector<Time> c = failuresBySeed(43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// Health-aware load balancer
// ---------------------------------------------------------------------

std::vector<std::unique_ptr<Server>>
makeServers(Engine& sim, std::size_t count)
{
    std::vector<std::unique_ptr<Server>> servers;
    for (std::size_t i = 0; i < count; ++i)
        servers.push_back(std::make_unique<Server>(sim, 1));
    return servers;
}

std::vector<Server*>
rawPointers(const std::vector<std::unique_ptr<Server>>& servers)
{
    std::vector<Server*> raw;
    for (const auto& server : servers)
        raw.push_back(server.get());
    return raw;
}

TEST(LoadBalancerHealth, RoundRobinSkipsEjectedBackends)
{
    Engine sim;
    auto servers = makeServers(sim, 3);
    LoadBalancer balancer(rawPointers(servers), Dispatch::RoundRobin,
                          Rng(1));
    balancer.setServerHealth(1, false);
    for (std::uint64_t id = 0; id < 6; ++id)
        balancer.accept(makeTask(id, 0.0, 1.0));
    EXPECT_EQ(balancer.perServerCounts()[0], 3u);
    EXPECT_EQ(balancer.perServerCounts()[1], 0u);
    EXPECT_EQ(balancer.perServerCounts()[2], 3u);
    EXPECT_EQ(balancer.routedCount(), 6u);
    EXPECT_EQ(balancer.ejectionCount(), 1u);
}

TEST(LoadBalancerHealth, ReadmissionRestoresRotation)
{
    Engine sim;
    auto servers = makeServers(sim, 2);
    LoadBalancer balancer(rawPointers(servers), Dispatch::RoundRobin,
                          Rng(1));
    balancer.setServerHealth(0, false);
    balancer.setServerHealth(0, false);  // idempotent: one ejection
    balancer.setServerHealth(0, true);
    for (std::uint64_t id = 0; id < 4; ++id)
        balancer.accept(makeTask(id, 0.0, 1.0));
    EXPECT_EQ(balancer.perServerCounts()[0], 2u);
    EXPECT_EQ(balancer.perServerCounts()[1], 2u);
    EXPECT_EQ(balancer.ejectionCount(), 1u);
    EXPECT_EQ(balancer.readmissionCount(), 1u);
}

TEST(LoadBalancerHealth, AllDownFlowsToOverflowHandler)
{
    for (const Dispatch policy :
         {Dispatch::Random, Dispatch::RoundRobin,
          Dispatch::JoinShortestQueue, Dispatch::PowerOfTwo}) {
        Engine sim;
        auto servers = makeServers(sim, 2);
        LoadBalancer balancer(rawPointers(servers), policy, Rng(9));
        std::vector<TaskLoss> overflowed;
        balancer.setOverflowHandler(
            [&](Task, TaskLoss loss) { overflowed.push_back(loss); });
        balancer.setServerHealth(0, false);
        balancer.setServerHealth(1, false);
        balancer.accept(makeTask(1, 0.0, 1.0));
        ASSERT_EQ(overflowed.size(), 1u);
        EXPECT_EQ(overflowed[0], TaskLoss::Unroutable);
        EXPECT_EQ(balancer.unroutableCount(), 1u);
        EXPECT_EQ(balancer.routedCount(), 0u);
        // Repair one backend: routing works again.
        balancer.setServerHealth(1, true);
        balancer.accept(makeTask(2, 0.0, 1.0));
        EXPECT_EQ(balancer.routedCount(), 1u);
    }
}

TEST(LoadBalancerHealth, AllDownWithoutHandlerOnlyCounts)
{
    Engine sim;
    auto servers = makeServers(sim, 1);
    LoadBalancer balancer(rawPointers(servers), Dispatch::Random, Rng(3));
    balancer.setServerHealth(0, false);
    balancer.accept(makeTask(1, 0.0, 1.0));  // must not crash
    EXPECT_EQ(balancer.unroutableCount(), 1u);
}

TEST(HealthCheckerTest, DetectsWithProbeLag)
{
    Engine sim;
    auto servers = makeServers(sim, 2);
    LoadBalancer balancer(rawPointers(servers), Dispatch::RoundRobin,
                          Rng(1));
    HealthChecker checker(sim, balancer, rawPointers(servers), 1.0);
    checker.start();
    // Failure at t=2.5 is detected by the t=3 probe, repair at t=4.2 by
    // the t=5 probe.
    sim.schedule(2.5, [&] {
        servers[0]->fail(TaskDisposition::Drop);
    });
    sim.schedule(2.75, [&] { EXPECT_TRUE(balancer.serverHealthy(0)); });
    sim.schedule(3.5, [&] { EXPECT_FALSE(balancer.serverHealthy(0)); });
    sim.schedule(4.2, [&] { servers[0]->repair(); });
    sim.schedule(4.5, [&] { EXPECT_FALSE(balancer.serverHealthy(0)); });
    sim.schedule(5.5, [&] {
        EXPECT_TRUE(balancer.serverHealthy(0));
        sim.stop();
    });
    sim.run();
    EXPECT_EQ(balancer.ejectionCount(), 1u);
    EXPECT_EQ(balancer.readmissionCount(), 1u);
    EXPECT_GE(checker.probeCount(), 5u);
}

// ---------------------------------------------------------------------
// Enum parsing (did-you-mean fatals)
// ---------------------------------------------------------------------

TEST(FailureParsingDeathTest, UnknownNamesSuggestNearest)
{
    EXPECT_EQ(parseTaskDisposition("Requeue"), TaskDisposition::Requeue);
    EXPECT_EXIT(parseTaskDisposition("dorp"),
                ::testing::ExitedWithCode(1),
                "unknown task disposition 'dorp'.*did you mean 'drop'");
    EXPECT_EXIT(parseDispatch("jqs"), ::testing::ExitedWithCode(1),
                "unknown dispatch policy 'jqs'.*did you mean 'jsq'");
}

// ---------------------------------------------------------------------
// Retry queue: backoff bounds, timeouts, stale completions
// ---------------------------------------------------------------------

/** Downstream that asynchronously loses every offered task. */
struct LossyAcceptor : TaskAcceptor
{
    LossyAcceptor(Engine& sim) : sim(sim) {}

    void
    accept(Task task) override
    {
        offerTimes.push_back(sim.now());
        pending.push_back(std::move(task));
        sim.schedule(sim.now(), [this] {
            Task t = std::move(pending.front());
            pending.pop_front();
            retry->onLost(std::move(t), TaskLoss::ServerFailure);
        });
    }

    Engine& sim;
    RetryQueue* retry = nullptr;
    std::vector<Time> offerTimes;
    std::deque<Task> pending;
};

TEST(RetryQueueTest, BackoffGrowsGeometricallyAndIsCapped)
{
    Engine sim;
    LossyAcceptor lossy(sim);
    RetrySpec spec;
    spec.maxRetries = 3;
    spec.backoffBase = 0.01;
    spec.backoffFactor = 2.0;
    spec.backoffMax = 0.015;
    FailureCounters counters;
    RetryQueue retry(sim, lossy, spec, counters);
    lossy.retry = &retry;
    std::vector<bool> outcomes;
    retry.setOutcomeHandler(
        [&](const Task&, bool ok) { outcomes.push_back(ok); });
    sim.schedule(0.0, [&] { retry.accept(makeTask(1, 0.0, 1.0)); });
    sim.run();
    // Re-offer k waits min(base * factor^(k-1), max):
    // 0.01, then 0.02 capped to 0.015, then 0.015.
    ASSERT_EQ(lossy.offerTimes.size(), 4u);
    EXPECT_NEAR(lossy.offerTimes[0], 0.0, 1e-12);
    EXPECT_NEAR(lossy.offerTimes[1], 0.010, 1e-12);
    EXPECT_NEAR(lossy.offerTimes[2], 0.025, 1e-12);
    EXPECT_NEAR(lossy.offerTimes[3], 0.040, 1e-12);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0]);
    EXPECT_EQ(counters.tasksRetried, 3u);
    EXPECT_EQ(counters.tasksLost, 1u);
    EXPECT_EQ(counters.tasksCompletedOk, 0u);
    EXPECT_EQ(retry.outstanding(), 0u);
}

/** Downstream that swallows tasks forever (timeouts must fire). */
struct BlackHoleAcceptor : TaskAcceptor
{
    void
    accept(Task task) override
    {
        swallowed.push_back(std::move(task));
    }

    std::vector<Task> swallowed;
};

TEST(RetryQueueTest, BackoffIsClosedFormAndFiniteForHugeAttemptCounts)
{
    Engine sim;
    BlackHoleAcceptor hole;
    RetrySpec spec;
    spec.backoffBase = 0.01;
    spec.backoffFactor = 2.0;
    spec.backoffMax = 30.0;
    FailureCounters counters;
    RetryQueue retry(sim, hole, spec, counters);
    // Exact values below the clamp...
    EXPECT_DOUBLE_EQ(retry.backoffDelay(1), 0.01);
    EXPECT_DOUBLE_EQ(retry.backoffDelay(2), 0.02);
    EXPECT_DOUBLE_EQ(retry.backoffDelay(11), 10.24);
    // ...exactly backoffMax at and past it (base * 2^12 = 40.96 > 30)...
    EXPECT_DOUBLE_EQ(retry.backoffDelay(13), 30.0);
    EXPECT_DOUBLE_EQ(retry.backoffDelay(64), 30.0);
    // ...and still exactly backoffMax for attempt counts where the naive
    // factor^attempt product overflows to inf long before it is clamped.
    EXPECT_DOUBLE_EQ(retry.backoffDelay(2000), 30.0);
    EXPECT_DOUBLE_EQ(retry.backoffDelay(1'000'000'000u), 30.0);
    EXPECT_DOUBLE_EQ(
        retry.backoffDelay(std::numeric_limits<std::uint32_t>::max()),
        30.0);
}

TEST(RetryQueueTest, BackoffWithUnitFactorStaysAtBaseForever)
{
    Engine sim;
    BlackHoleAcceptor hole;
    RetrySpec spec;
    spec.backoffBase = 0.25;
    spec.backoffFactor = 1.0;  // degenerate: log(factor) == 0
    spec.backoffMax = 5.0;
    FailureCounters counters;
    RetryQueue retry(sim, hole, spec, counters);
    EXPECT_DOUBLE_EQ(retry.backoffDelay(1), 0.25);
    EXPECT_DOUBLE_EQ(retry.backoffDelay(1'000'000'000u), 0.25);
}

TEST(RetryQueueTest, TimeoutAbandonsAttemptAndStaleCompletionIsIgnored)
{
    Engine sim;
    BlackHoleAcceptor hole;
    RetrySpec spec;
    spec.maxRetries = 1;
    spec.timeout = 0.05;
    spec.backoffBase = 0.01;
    FailureCounters counters;
    RetryQueue retry(sim, hole, spec, counters);
    std::vector<bool> outcomes;
    retry.setOutcomeHandler(
        [&](const Task&, bool ok) { outcomes.push_back(ok); });
    sim.schedule(0.0, [&] { retry.accept(makeTask(7, 0.0, 1.0)); });
    sim.run();
    // Attempt 0 times out at 0.05, the retry is offered at 0.06 and
    // times out at 0.11 -> terminally lost.
    EXPECT_EQ(counters.tasksTimedOut, 2u);
    EXPECT_EQ(counters.tasksRetried, 1u);
    EXPECT_EQ(counters.tasksLost, 1u);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0]);
    // The swallowed copies later "complete": both are zombie work the
    // client already gave up on, so neither counts for goodput.
    ASSERT_EQ(hole.swallowed.size(), 2u);
    EXPECT_FALSE(retry.onCompleted(hole.swallowed[0]));
    EXPECT_FALSE(retry.onCompleted(hole.swallowed[1]));
    EXPECT_EQ(counters.staleCompletions, 2u);
    EXPECT_EQ(counters.tasksCompletedOk, 0u);
}

TEST(RetryQueueTest, FreshCompletionResolvesOk)
{
    Engine sim;
    BlackHoleAcceptor hole;
    FailureCounters counters;
    RetryQueue retry(sim, hole, RetrySpec{}, counters);
    sim.schedule(0.0, [&] { retry.accept(makeTask(1, 0.0, 1.0)); });
    sim.run();
    ASSERT_EQ(hole.swallowed.size(), 1u);
    EXPECT_TRUE(retry.onCompleted(hole.swallowed[0]));
    EXPECT_EQ(counters.tasksCompletedOk, 1u);
    EXPECT_EQ(counters.staleCompletions, 0u);
}

// ---------------------------------------------------------------------
// Experiment-level: config schema, analytic availability, determinism
// ---------------------------------------------------------------------

/** A failing 4-server cluster: MTBF 10s, MTTR 2s -> availability 5/6. */
ExperimentSpec
failingExperimentSpec()
{
    const Config config = Config::fromString(R"({
        "workload": {
            "name": "synthetic",
            "interarrival": {"mean": 0.02, "cv": 1.0},
            "service": {"mean": 0.01, "cv": 1.0}
        },
        "cluster": {"servers": 4, "cores": 1},
        "dispatch": "jsq",
        "failures": {
            "uptime": {"dist": "exponential", "mean": 10.0},
            "downtime": {"dist": "exponential", "mean": 2.0},
            "disposition": "drop",
            "retry": {"maxRetries": 3, "backoffBase": 0.01}
        },
        "sqs": {"accuracy": 0.1}
    })");
    return Experiment::specFromConfig(config);
}

TEST(FailureExperiment, SpecFromConfigParsesFailuresBlock)
{
    const ExperimentSpec spec = failingExperimentSpec();
    ASSERT_TRUE(spec.failures.has_value());
    EXPECT_NEAR(spec.failures->uptime->mean(), 10.0, 1e-12);
    EXPECT_NEAR(spec.failures->downtime->mean(), 2.0, 1e-12);
    EXPECT_EQ(spec.failures->disposition, TaskDisposition::Drop);
    EXPECT_EQ(spec.failures->retry.maxRetries, 3u);
    EXPECT_DOUBLE_EQ(spec.failures->retry.backoffBase, 0.01);
    // Availability and goodput default on with a failures block;
    // downtime stays opt-in.
    EXPECT_TRUE(spec.recordAvailability);
    EXPECT_TRUE(spec.recordGoodput);
    EXPECT_FALSE(spec.recordDowntime);
}

TEST(FailureExperiment, DistributionBlocksCoverEveryFamily)
{
    const Config config = Config::fromString(R"({
        "weibull": {"dist": "weibull", "mean": 4.0, "shape": 0.5},
        "lognormal": {"dist": "lognormal", "mean": 4.0, "cv": 2.0},
        "deterministic": {"dist": "deterministic", "value": 4.0},
        "uniform": {"dist": "uniform", "lo": 2.0, "hi": 6.0},
        "fitted": {"mean": 4.0, "cv": 0.5}
    })");
    for (const char* path :
         {"weibull", "lognormal", "deterministic", "uniform", "fitted"}) {
        EXPECT_NEAR(distFromConfig(config, path, true)->mean(), 4.0, 1e-9)
            << path;
    }
}

TEST(FailureExperimentDeathTest, InvalidSpecs)
{
    // Failure metrics without a failures block.
    ExperimentSpec orphanMetric = failingExperimentSpec();
    orphanMetric.failures.reset();
    EXPECT_EXIT(Experiment{std::move(orphanMetric)},
                ::testing::ExitedWithCode(1), "require a failures");

    // Failures demand the FCFS server model.
    ExperimentSpec wrongModel = failingExperimentSpec();
    wrongModel.dispatch.reset();
    wrongModel.serverModel = ServerModel::ProcessorSharing;
    EXPECT_EXIT(Experiment{std::move(wrongModel)},
                ::testing::ExitedWithCode(1), "FCFS server model");

    // Misspelled keys inside the failures block fail fast when strict.
    const Config typo = Config::fromString(R"({
        "workload": "google",
        "failures": {
            "uptime": {"mean": 10.0, "cv": 1.0},
            "downtime": {"mean": 2.0, "cv": 1.0},
            "dispositon": "drop"
        }
    })");
    EXPECT_EXIT(Experiment::specFromConfig(typo),
                ::testing::ExitedWithCode(1), "failures block");

    // A misspelled distribution family dies in both modes; a key the
    // family does not take dies when strict and is ignored when lax.
    const Config family = Config::fromString(R"({
        "workload": "google",
        "failures": {
            "uptime": {"dist": "weibul", "mean": 10.0, "shape": 2.0},
            "downtime": {"mean": 2.0, "cv": 1.0}
        }
    })");
    EXPECT_EXIT(Experiment::specFromConfig(family, false),
                ::testing::ExitedWithCode(1),
                "unknown distribution family 'weibul'.*did you mean "
                "'weibull'");
    const Config stray = Config::fromString(R"({
        "workload": "google",
        "failures": {
            "uptime": {"dist": "exponential", "mean": 10.0, "shape": 2.0},
            "downtime": {"mean": 2.0, "cv": 1.0}
        }
    })");
    EXPECT_EXIT(Experiment::specFromConfig(stray),
                ::testing::ExitedWithCode(1),
                "unknown key 'shape' in failures.uptime block");
    EXPECT_NEAR(
        Experiment::specFromConfig(stray, false).failures->uptime->mean(),
        10.0, 1e-12);

    // Every block is strict: one misspelled key per block dies naming
    // the key and its block, and lax loading ignores it.
    struct Typo
    {
        const char* json;   ///< the config's members, one key misspelled
        const char* key;    ///< the misspelled key
        const char* block;  ///< the block the message names
    };
    const std::vector<Typo> typos = {
        {R"("workload": {"name": "google", "extra": 1,
                         "interarrival": {"mean": 0.01, "cv": 1.0},
                         "service": {"mean": 0.005, "cv": 1.0}})",
         "extra", "workload"},
        {R"("workload": {"name": "google",
                         "interarrival": {"dist": "deterministic",
                                          "value": 0.01, "mean": 0.01},
                         "service": {"mean": 0.005, "cv": 1.0}})",
         "mean", "workload.interarrival"},
        {R"("workload": {"name": "google",
                         "interarrival": {"mean": 0.01, "cv": 1.0},
                         "service": {"mean": 0.005, "cv": 1.0,
                                     "shpe": 2.0}})",
         "shpe", "workload.service"},
        {R"("workload": "google", "cluster": {"servers": 2, "typo": 1})",
         "typo", "cluster"},
        {R"("workload": "google", "metrics": {"waitng": true})", "waitng",
         "metrics"},
        {R"("workload": "google", "sqs": {"warmupp": 10})", "warmupp",
         "sqs"},
        {R"("workload": "google", "capping": {"budgetFracton": 0.5})",
         "budgetFracton", "capping"},
        {R"("workload": "google", "dreamweaver": {"delayBudgt": 0.02})",
         "delayBudgt", "dreamweaver"},
        {R"("workload": "google", "powernap": {"wakeLatncy": 0.002})",
         "wakeLatncy", "powernap"},
        {R"("workload": "google", "sim": {"backnd": "des"})", "backnd",
         "sim"},
        {R"("workload": "google", "timeline": {"windw": 2.0})", "windw",
         "timeline"},
        {R"("workload": "google",
            "failures": {"uptime": {"mean": 10.0, "cv": 1.0},
                         "downtime": {"mean": 2.0, "cv": 1.0},
                         "retry": {"maxRetry": 2}})",
         "maxRetry", "failures.retry"},
    };
    for (const Typo& entry : typos) {
        const Config config =
            Config::fromString(std::string("{") + entry.json + "}");
        EXPECT_EXIT(Experiment::specFromConfig(config),
                    ::testing::ExitedWithCode(1),
                    std::string("unknown key '") + entry.key + "' in "
                        + entry.block + " block")
            << entry.block;
        EXPECT_EQ(Experiment::specFromConfig(config, false).workload.name,
                  "google")
            << entry.block;
    }

    // The retired engine block is an unknown top-level key like any
    // other: strict loading names it, lax loading ignores it.
    const Config engine = Config::fromString(R"({
        "workload": "google",
        "engine": {"taskArena": false}
    })");
    EXPECT_EXIT(Experiment::specFromConfig(engine),
                ::testing::ExitedWithCode(1), "unknown key 'engine'");
    EXPECT_EQ(Experiment::specFromConfig(engine, false).servers, 1u);
}

TEST(FailureExperiment, AvailabilityMatchesBreakdownAnalysis)
{
    const SqsResult result =
        Experiment(failingExperimentSpec()).run(11);
    ASSERT_TRUE(result.converged);

    // MTBF/(MTBF+MTTR) = 10/12.
    const double analytic = 10.0 / 12.0;
    const MetricEstimate* availability = nullptr;
    const MetricEstimate* goodput = nullptr;
    for (const auto& est : result.estimates) {
        if (est.name == kAvailabilityMetric)
            availability = &est;
        if (est.name == kGoodputMetric)
            goodput = &est;
    }
    ASSERT_NE(availability, nullptr);
    ASSERT_NE(goodput, nullptr);
    // The probe-sampled estimate converged at 10% relative accuracy.
    EXPECT_NEAR(availability->mean, analytic, 0.1 * analytic);
    // Retries at light load recover nearly everything.
    EXPECT_GT(goodput->mean, 0.9);

    // The exact time-integrated totals agree with the probe estimate.
    ASSERT_TRUE(result.failures.has_value());
    const FailureTotals& totals = *result.failures;
    EXPECT_NEAR(totals.availability(), analytic, 0.05);
    EXPECT_GT(totals.counters.failuresInjected, 0u);
    // Every failure but possibly the in-progress outages was repaired.
    EXPECT_LE(totals.counters.repairsCompleted,
              totals.counters.failuresInjected);
    EXPECT_LE(totals.counters.failuresInjected,
              totals.counters.repairsCompleted + 4);
    // Terminal outcomes resolved: goodput consistent with the counters.
    EXPECT_GT(totals.counters.tasksCompletedOk, 0u);
    EXPECT_NEAR(totals.goodput(), goodput->mean, 0.05);
}

TEST(FailureExperiment, SameSeedRunsAreBitIdentical)
{
    const Experiment experiment(failingExperimentSpec());
    const SqsResult a = experiment.run(77);
    const SqsResult b = experiment.run(77);
    EXPECT_EQ(a.events, b.events);
    EXPECT_DOUBLE_EQ(a.simulatedTime, b.simulatedTime);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.estimates[i].mean, b.estimates[i].mean)
            << a.estimates[i].name;
        EXPECT_EQ(a.estimates[i].accepted, b.estimates[i].accepted);
    }
    ASSERT_TRUE(a.failures.has_value());
    ASSERT_TRUE(b.failures.has_value());
    EXPECT_EQ(a.failures->counters.failuresInjected,
              b.failures->counters.failuresInjected);
    EXPECT_EQ(a.failures->counters.tasksRetried,
              b.failures->counters.tasksRetried);
    EXPECT_EQ(a.failures->counters.tasksLost,
              b.failures->counters.tasksLost);
    EXPECT_DOUBLE_EQ(a.failures->serverSecondsDown,
                     b.failures->serverSecondsDown);
}

/**
 * The no-failures path must stay byte-identical to the pre-failure
 * simulator. These constants are the smoke_experiment estimates captured
 * on the build *before* the failure subsystem existed; any extra RNG
 * draw, event, or reordering on the disabled path changes them.
 */
TEST(FailureExperiment, DisabledPathPinnedToPreFailureGolden)
{
    const Config config = Config::fromString(R"({
        "workload": {
            "name": "smoke",
            "interarrival": {"mean": 0.02, "cv": 1.0},
            "service": {"mean": 0.01, "cv": 1.0}
        },
        "cluster": {"servers": 1, "cores": 1},
        "metrics": {"response": true, "waiting": true},
        "sim": {"backend": "des"},
        "sqs": {"accuracy": 0.1, "confidence": 0.95, "quantile": 0.95}
    })");
    const SqsResult result =
        Experiment(Experiment::specFromConfig(config)).run(3);
    EXPECT_FALSE(result.failures.has_value());
    EXPECT_EQ(result.events, 40000u);
    EXPECT_DOUBLE_EQ(result.simulatedTime, 397.83590884472136);
    ASSERT_EQ(result.estimates.size(), 2u);
    EXPECT_DOUBLE_EQ(result.estimates[0].mean, 0.020521761206917722);
    EXPECT_EQ(result.estimates[0].accepted, 3244u);
    EXPECT_DOUBLE_EQ(result.estimates[0].stddev, 0.019504150528674085);
    EXPECT_DOUBLE_EQ(result.estimates[1].mean, 0.02161813191386701);
    EXPECT_EQ(result.estimates[1].accepted, 1401u);
}

TEST(FailureExperiment, TotalsSurviveJsonRoundTrip)
{
    SqsResult result = Experiment(failingExperimentSpec()).run(5);
    ASSERT_TRUE(result.failures.has_value());
    const SqsResult back = resultFromJson(resultToJson(result));
    ASSERT_TRUE(back.failures.has_value());
    const FailureCounters& a = result.failures->counters;
    const FailureCounters& b = back.failures->counters;
    EXPECT_EQ(a.failuresInjected, b.failuresInjected);
    EXPECT_EQ(a.repairsCompleted, b.repairsCompleted);
    EXPECT_EQ(a.tasksDropped, b.tasksDropped);
    EXPECT_EQ(a.tasksRetried, b.tasksRetried);
    EXPECT_EQ(a.tasksLost, b.tasksLost);
    EXPECT_EQ(a.tasksCompletedOk, b.tasksCompletedOk);
    EXPECT_EQ(a.staleCompletions, b.staleCompletions);
    EXPECT_EQ(a.backendsEjected, b.backendsEjected);
    // %.17g doubles round-trip exactly.
    EXPECT_DOUBLE_EQ(result.failures->serverSecondsUp,
                     back.failures->serverSecondsUp);
    EXPECT_DOUBLE_EQ(result.failures->serverSecondsDown,
                     back.failures->serverSecondsDown);

    // A result without failures must serialize without the key.
    SqsResult plain = result;
    plain.failures.reset();
    const JsonValue json = resultToJson(plain);
    EXPECT_FALSE(resultFromJson(json).failures.has_value());
}

// ---------------------------------------------------------------------
// Parallel merge: ensemble counters stay conserved
// ---------------------------------------------------------------------

TEST(ParallelFailures, MergedTotalsSumSlaves)
{
    auto experiment =
        std::make_shared<Experiment>(failingExperimentSpec());
    ParallelConfig cfg;
    cfg.slaves = 3;
    cfg.sqs = experiment->specification().sqs;
    ParallelRunner runner(
        [experiment](SqsSimulation& sim) { experiment->buildInto(sim); },
        cfg);
    const ParallelResult result = runner.run(31);
    ASSERT_TRUE(result.converged);
    ASSERT_TRUE(result.failures.has_value());
    const FailureTotals& totals = *result.failures;

    // The ensemble is the 3 slaves (the master runs no events); a single
    // serial run of the same model bounds their sum from below.
    const SqsResult serial = Experiment(failingExperimentSpec()).run(31);
    ASSERT_TRUE(serial.failures.has_value());
    EXPECT_GT(totals.counters.failuresInjected,
              serial.failures->counters.failuresInjected);
    EXPECT_GT(totals.counters.tasksCompletedOk,
              serial.failures->counters.tasksCompletedOk);

    // Conservation survives the sum: repairs trail failures by at most
    // the in-progress outages (4 servers per slave, 3 slaves).
    EXPECT_LE(totals.counters.repairsCompleted,
              totals.counters.failuresInjected);
    EXPECT_LE(totals.counters.failuresInjected,
              totals.counters.repairsCompleted + 3 * 4);
    // And the summed time split still averages to the analytic answer.
    EXPECT_NEAR(totals.availability(), 10.0 / 12.0, 0.05);
}

} // namespace
} // namespace bighouse
