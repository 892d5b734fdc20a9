/**
 * @file
 * Tests for the Experiment layer: spec validation, config parsing, metric
 * wiring (the Fig. 9 metric sets), load/SCPU knobs, and capping runs.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "distribution/fit.hh"
#include "workload/library.hh"

namespace bighouse {
namespace {

ExperimentSpec
googleSpec()
{
    ExperimentSpec spec;
    spec.workload = makeWorkload("google");
    spec.servers = 1;
    spec.coresPerServer = 16;
    spec.sqs.warmupSamples = 1000;
    spec.sqs.calibrationSamples = 5000;
    spec.sqs.accuracy = 0.1;  // keep unit-test runs short
    spec.sqs.maxEvents = 20'000'000;
    return spec;
}

TEST(Experiment, GoogleLeafConverges)
{
    // QPS ~ 50%: scale arrivals so offered load is 0.5.
    ExperimentSpec spec = googleSpec();
    spec.workload = scaledToLoad(spec.workload, 16, 0.5);
    const SqsResult result = Experiment(std::move(spec)).run(1);
    ASSERT_TRUE(result.converged);
    ASSERT_EQ(result.estimates.size(), 1u);
    EXPECT_EQ(result.estimates[0].name, kResponseTimeMetric);
    // Response is at least the mean service time, and far below 100x it.
    EXPECT_GT(result.estimates[0].mean, 4.2e-3 * 0.9);
    EXPECT_LT(result.estimates[0].mean, 4.2e-3 * 10);
}

TEST(Experiment, SlowdownRaisesLatency)
{
    auto meanLatency = [](double scpu) {
        ExperimentSpec spec = googleSpec();
        spec.workload = scaledToLoad(spec.workload, 16, 0.4);
        spec.cpuSlowdown = scpu;
        return Experiment(std::move(spec)).run(2).estimates[0].mean;
    };
    const double nominal = meanLatency(1.0);
    const double slowed = meanLatency(2.0);
    EXPECT_GT(slowed, 1.5 * nominal);
}

TEST(Experiment, LoadFactorRaisesLatency)
{
    auto meanLatency = [](double factor) {
        ExperimentSpec spec = googleSpec();
        spec.workload = scaledToLoad(spec.workload, 16, 0.3);
        spec.loadFactor = factor;
        return Experiment(std::move(spec)).run(3).estimates[0].mean;
    };
    EXPECT_GT(meanLatency(2.5), meanLatency(1.0));
}

TEST(Experiment, MetricSetsMatchSpec)
{
    ExperimentSpec spec = googleSpec();
    spec.workload = scaledToLoad(spec.workload, 16, 0.5);
    spec.recordWaitingTime = true;
    const SqsResult result = Experiment(std::move(spec)).run(4);
    ASSERT_EQ(result.estimates.size(), 2u);
    EXPECT_EQ(result.estimates[0].name, kResponseTimeMetric);
    EXPECT_EQ(result.estimates[1].name, kWaitingTimeMetric);
}

TEST(Experiment, CappedClusterRuns)
{
    ExperimentSpec spec;
    spec.workload = makeWorkload("web");
    spec.workload = scaledToLoad(spec.workload, 4, 0.6);
    spec.servers = 4;
    spec.coresPerServer = 4;
    spec.recordCappingLevel = true;
    PowerCappingSpec capping;
    capping.budgetFraction = 0.7;
    capping.dvfs = DvfsModel(ServerPowerSpec{150, 150, 5}, 0.9, 0.5);
    spec.capping = capping;
    spec.sqs.accuracy = 0.2;  // capping epochs are rare; keep tests quick
    spec.sqs.warmupSamples = 200;
    spec.sqs.calibrationSamples = 1000;
    spec.sqs.maxEvents = 30'000'000;
    const SqsResult result = Experiment(std::move(spec)).run(5);
    ASSERT_EQ(result.estimates.size(), 2u);
    EXPECT_EQ(result.estimates[1].name, kCappingLevelMetric);
    EXPECT_GT(result.estimates[1].accepted, 0u);
}

TEST(Experiment, ServerModelParsing)
{
    EXPECT_EQ(parseServerModel("fcfs"), ServerModel::Fcfs);
    EXPECT_EQ(parseServerModel("PS"), ServerModel::ProcessorSharing);
    EXPECT_EQ(parseServerModel("DreamWeaver"), ServerModel::DreamWeaver);
    EXPECT_EQ(parseServerModel("powernap"), ServerModel::PowerNap);
    EXPECT_EXIT(parseServerModel("lifo"), ::testing::ExitedWithCode(1),
                "unknown server model");
}

TEST(Experiment, ProcessorSharingModelConverges)
{
    ExperimentSpec spec = googleSpec();
    spec.workload = scaledToLoad(spec.workload, 16, 0.5);
    spec.serverModel = ServerModel::ProcessorSharing;
    const SqsResult result = Experiment(std::move(spec)).run(7);
    ASSERT_TRUE(result.converged);
    EXPECT_GT(result.estimates[0].mean, 0.0);
}

TEST(Experiment, SleepPolicyModelsConverge)
{
    for (const ServerModel model :
         {ServerModel::DreamWeaver, ServerModel::PowerNap}) {
        ExperimentSpec spec = googleSpec();
        spec.workload = scaledToLoad(spec.workload, 16, 0.3);
        spec.serverModel = model;
        spec.dreamweaver.delayBudget = 10.0 * kMilliSecond;
        const SqsResult result = Experiment(std::move(spec)).run(8);
        ASSERT_TRUE(result.converged);
        // Sleep policies trade latency: mean must exceed the bare
        // service mean but stay bounded.
        EXPECT_GT(result.estimates[0].mean, 4.2e-3);
        EXPECT_LT(result.estimates[0].mean, 1.0);
    }
}

TEST(Experiment, CentralBalancerTopology)
{
    ExperimentSpec spec = googleSpec();
    spec.workload = scaledToLoad(spec.workload, 4, 0.6);
    spec.servers = 8;
    spec.coresPerServer = 4;
    spec.dispatch = Dispatch::JoinShortestQueue;
    const SqsResult jsq = Experiment(spec.clone()).run(9);
    ASSERT_TRUE(jsq.converged);

    spec.dispatch = Dispatch::Random;
    const SqsResult random = Experiment(std::move(spec)).run(9);
    ASSERT_TRUE(random.converged);
    // Informed dispatch strictly improves the tail at equal load.
    EXPECT_LT(jsq.estimates[0].quantiles[0].value,
              random.estimates[0].quantiles[0].value);
}

TEST(ExperimentDeathTest, ModelRestrictions)
{
    ExperimentSpec slowedNap = googleSpec();
    slowedNap.serverModel = ServerModel::PowerNap;
    slowedNap.cpuSlowdown = 1.5;
    EXPECT_EXIT(Experiment{std::move(slowedNap)},
                ::testing::ExitedWithCode(1), "FCFS or PS");

    ExperimentSpec cappedPs = googleSpec();
    cappedPs.serverModel = ServerModel::ProcessorSharing;
    PowerCappingSpec capping;
    capping.dvfs = DvfsModel(ServerPowerSpec{150, 150, 5}, 0.9, 0.5);
    cappedPs.capping = capping;
    EXPECT_EXIT(Experiment{std::move(cappedPs)},
                ::testing::ExitedWithCode(1), "FCFS server model");

    ExperimentSpec balancedDw = googleSpec();
    balancedDw.serverModel = ServerModel::DreamWeaver;
    balancedDw.dispatch = Dispatch::Random;
    EXPECT_EXIT(Experiment{std::move(balancedDw)},
                ::testing::ExitedWithCode(1), "load balancer");

    ExperimentSpec psWaiting = googleSpec();
    psWaiting.serverModel = ServerModel::ProcessorSharing;
    psWaiting.recordWaitingTime = true;
    EXPECT_EXIT(Experiment{std::move(psWaiting)},
                ::testing::ExitedWithCode(1), "processor sharing");
}

class ExperimentDeterminism
    : public ::testing::TestWithParam<ServerModel>
{
};

TEST_P(ExperimentDeterminism, SameSeedBitIdenticalAcrossModels)
{
    ExperimentSpec spec = googleSpec();
    spec.workload = scaledToLoad(spec.workload, 16, 0.35);
    spec.serverModel = GetParam();
    spec.dreamweaver.delayBudget = 20.0 * kMilliSecond;
    const Experiment experiment(std::move(spec));
    const SqsResult a = experiment.run(777);
    const SqsResult b = experiment.run(777);
    EXPECT_EQ(a.events, b.events);
    EXPECT_DOUBLE_EQ(a.simulatedTime, b.simulatedTime);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    EXPECT_DOUBLE_EQ(a.estimates[0].mean, b.estimates[0].mean);
    EXPECT_DOUBLE_EQ(a.estimates[0].stddev, b.estimates[0].stddev);
    ASSERT_FALSE(a.estimates[0].quantiles.empty());
    EXPECT_DOUBLE_EQ(a.estimates[0].quantiles[0].value,
                     b.estimates[0].quantiles[0].value);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ExperimentDeterminism,
    ::testing::Values(ServerModel::Fcfs, ServerModel::ProcessorSharing,
                      ServerModel::DreamWeaver, ServerModel::PowerNap),
    [](const ::testing::TestParamInfo<ServerModel>& paramInfo) {
        switch (paramInfo.param) {
          case ServerModel::Fcfs: return "Fcfs";
          case ServerModel::ProcessorSharing: return "Ps";
          case ServerModel::DreamWeaver: return "DreamWeaver";
          case ServerModel::PowerNap: return "PowerNap";
        }
        return "Unknown";
    });

TEST(Experiment, SpecFromConfigServerModelAndDispatch)
{
    const Config config = Config::fromString(R"({
        "workload": "google",
        "serverModel": "dreamweaver",
        "dreamweaver": {"delayBudget": 0.05, "wakeLatency": 0.002}
    })");
    const ExperimentSpec spec = Experiment::specFromConfig(config);
    EXPECT_EQ(spec.serverModel, ServerModel::DreamWeaver);
    EXPECT_DOUBLE_EQ(spec.dreamweaver.delayBudget, 0.05);
    EXPECT_DOUBLE_EQ(spec.dreamweaver.sleep.wakeLatency, 0.002);

    const Config balanced = Config::fromString(R"({
        "workload": "web",
        "dispatch": "p2c"
    })");
    const ExperimentSpec balancedSpec =
        Experiment::specFromConfig(balanced);
    ASSERT_TRUE(balancedSpec.dispatch.has_value());
    EXPECT_EQ(*balancedSpec.dispatch, Dispatch::PowerOfTwo);
}

TEST(Experiment, ServerPowerMetric)
{
    ExperimentSpec spec;
    spec.workload = makeWorkload("web");
    spec.workload = scaledToLoad(spec.workload, 4, 0.5);
    spec.servers = 4;
    spec.coresPerServer = 4;
    spec.recordServerPower = true;
    PowerCappingSpec capping;
    capping.budgetFraction = 1.0;  // uncapped: pure power observation
    capping.dvfs = DvfsModel(ServerPowerSpec{150, 150, 5}, 0.9, 0.5);
    spec.capping = capping;
    spec.sqs.accuracy = 0.1;
    spec.sqs.warmupSamples = 100;
    spec.sqs.calibrationSamples = 1000;
    spec.sqs.maxEvents = 50'000'000;
    const SqsResult result = Experiment(std::move(spec)).run(6);
    const MetricEstimate* power = nullptr;
    for (const auto& est : result.estimates) {
        if (est.name == kServerPowerMetric)
            power = &est;
    }
    ASSERT_NE(power, nullptr);
    // Eq. 4 at U = 0.5: P = 150 + 150 * 0.5 = 225 W per server.
    EXPECT_NEAR(power->mean, 225.0, 20.0);
}

TEST(Experiment, SpecFromConfigFullSchema)
{
    const Config config = Config::fromString(R"({
        "workload": "mail",
        "cluster": {"servers": 10, "cores": 8},
        "loadFactor": 1.5,
        "cpuSlowdown": 1.3,
        "metrics": {"response": true, "waiting": true, "capping": true},
        "sqs": {"accuracy": 0.02, "confidence": 0.99, "warmup": 500,
                 "calibration": 2000, "quantile": 0.99},
        "capping": {"budgetFraction": 0.8, "epoch": 0.5,
                     "idleWatts": 100, "dynamicWatts": 200,
                     "alpha": 0.8, "fMin": 0.6}
    })");
    const ExperimentSpec spec = Experiment::specFromConfig(config);
    EXPECT_EQ(spec.workload.name, "mail");
    EXPECT_EQ(spec.servers, 10u);
    EXPECT_EQ(spec.coresPerServer, 8u);
    EXPECT_DOUBLE_EQ(spec.loadFactor, 1.5);
    EXPECT_DOUBLE_EQ(spec.cpuSlowdown, 1.3);
    EXPECT_TRUE(spec.recordWaitingTime);
    EXPECT_TRUE(spec.recordCappingLevel);
    EXPECT_DOUBLE_EQ(spec.sqs.accuracy, 0.02);
    EXPECT_DOUBLE_EQ(spec.sqs.confidence, 0.99);
    EXPECT_EQ(spec.sqs.warmupSamples, 500u);
    EXPECT_EQ(spec.sqs.calibrationSamples, 2000u);
    ASSERT_EQ(spec.sqs.quantiles.size(), 1u);
    EXPECT_DOUBLE_EQ(spec.sqs.quantiles[0], 0.99);
    ASSERT_TRUE(spec.capping.has_value());
    EXPECT_DOUBLE_EQ(spec.capping->budgetFraction, 0.8);
    EXPECT_DOUBLE_EQ(spec.capping->epoch, 0.5);
    EXPECT_DOUBLE_EQ(spec.capping->dvfs.spec().peakWatts(), 300.0);
}

TEST(Experiment, SpecFromConfigCustomMoments)
{
    const Config config = Config::fromString(R"({
        "workload": {
            "name": "synthetic",
            "interarrival": {"mean": 0.01, "cv": 1.0},
            "service": {"mean": 0.02, "cv": 2.0}
        }
    })");
    const ExperimentSpec spec = Experiment::specFromConfig(config);
    EXPECT_EQ(spec.workload.name, "synthetic");
    EXPECT_NEAR(spec.workload.interarrival->mean(), 0.01, 1e-12);
    EXPECT_NEAR(spec.workload.service->cv(), 2.0, 1e-6);
}

TEST(Experiment, WorkloadBlocksUseTheDistributionGrammar)
{
    // Without "dist" a block is the fitMeanCv two-moment fit; with one
    // it takes any family the failures block takes.
    const Config config = Config::fromString(R"({
        "workload": {
            "interarrival": {"dist": "deterministic", "value": 0.01},
            "service": {"dist": "weibull", "mean": 0.005, "shape": 0.5}
        }
    })");
    const ExperimentSpec spec = Experiment::specFromConfig(config);
    EXPECT_EQ(spec.workload.name, "custom");
    EXPECT_DOUBLE_EQ(spec.workload.interarrival->mean(), 0.01);
    EXPECT_DOUBLE_EQ(spec.workload.interarrival->variance(), 0.0);
    EXPECT_NEAR(spec.workload.service->mean(), 0.005, 1e-12);
    EXPECT_GT(spec.workload.service->cv(), 2.0);

    const Config moments = Config::fromString(R"({
        "workload": {
            "interarrival": {"mean": 0.01, "cv": 0.5},
            "service": {"mean": 0.02, "cv": 2.0}
        }
    })");
    const ExperimentSpec fitted = Experiment::specFromConfig(moments);
    EXPECT_EQ(fitted.workload.interarrival->describe(),
              fitMeanCv(0.01, 0.5)->describe());
    EXPECT_EQ(fitted.workload.service->describe(),
              fitMeanCv(0.02, 2.0)->describe());
}

TEST(Experiment, SpecCloneIsDeep)
{
    const ExperimentSpec spec = googleSpec();
    const ExperimentSpec copy = spec.clone();
    EXPECT_NE(copy.workload.service.get(), spec.workload.service.get());
    EXPECT_EQ(copy.servers, spec.servers);
}

TEST(ExperimentDeathTest, InvalidSpecs)
{
    ExperimentSpec noMetrics = googleSpec();
    noMetrics.recordResponseTime = false;
    EXPECT_EXIT(Experiment{std::move(noMetrics)},
                ::testing::ExitedWithCode(1), "no metrics");

    ExperimentSpec cappingWithoutBlock = googleSpec();
    cappingWithoutBlock.recordCappingLevel = true;
    EXPECT_EXIT(Experiment{std::move(cappingWithoutBlock)},
                ::testing::ExitedWithCode(1), "capping block");

    ExperimentSpec powerWithoutBlock = googleSpec();
    powerWithoutBlock.recordServerPower = true;
    EXPECT_EXIT(Experiment{std::move(powerWithoutBlock)},
                ::testing::ExitedWithCode(1), "power model");

    ExperimentSpec noServers = googleSpec();
    noServers.servers = 0;
    EXPECT_EXIT(Experiment{std::move(noServers)},
                ::testing::ExitedWithCode(1), "at least one server");

    ExperimentSpec noCores = googleSpec();
    noCores.coresPerServer = 0;
    EXPECT_EXIT(Experiment{std::move(noCores)},
                ::testing::ExitedWithCode(1), "at least one core");

    ExperimentSpec badSlowdown = googleSpec();
    badSlowdown.cpuSlowdown = 0.5;
    EXPECT_EXIT(Experiment{std::move(badSlowdown)},
                ::testing::ExitedWithCode(1), "slowdown");

    const Config config = Config::fromString(R"({"cluster": {}})");
    EXPECT_EXIT(Experiment::specFromConfig(config),
                ::testing::ExitedWithCode(1), "workload");
}

TEST(ExperimentDeathTest, OfferedLoadOfOneOrMoreIsFatal)
{
    // Table-1 google offers 0.82 per 16-core server; SCPU 1.3 lifts that
    // past 1, and the queue then grows without bound.
    ExperimentSpec slowed = googleSpec();
    slowed.cpuSlowdown = 1.3;
    EXPECT_NEAR(offeredLoad(slowed), 1.07, 0.01);
    EXPECT_EXIT(Experiment{std::move(slowed)}, ::testing::ExitedWithCode(1),
                "offered load per server at full speed is 1.07 = "
                "loadFactor 1 x E.S. 0.0042 s x cpuSlowdown 1.3 / "
                ".E.gap. 0.000319 s x 16 cores.");

    // rho = 1 exactly is no steady state either.
    ExperimentSpec critical = googleSpec();
    critical.workload.interarrival = fitMeanCv(0.01, 1.0);
    critical.workload.service = fitMeanCv(0.01, 1.0);
    critical.coresPerServer = 1;
    EXPECT_EQ(offeredLoad(critical), 1.0);
    EXPECT_EXIT(Experiment{std::move(critical)},
                ::testing::ExitedWithCode(1), "offered load .* is 1 = ");

    // Just below 1 builds.
    ExperimentSpec stable = googleSpec();
    stable.cpuSlowdown = 1.2;
    EXPECT_LT(offeredLoad(stable), 1.0);
    const Experiment built(std::move(stable));
}

} // namespace
} // namespace bighouse
