/**
 * @file
 * Tests for the workload layer: Table-1 fidelity (means and Cv of all
 * five shipped workloads), load scaling, empirical materialization, and
 * the .dist file round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "base/random.hh"
#include "core/experiment.hh"
#include "workload/library.hh"
#include "workload/workload.hh"

namespace bighouse {
namespace {

TEST(Table1, HasFiveWorkloads)
{
    const auto rows = table1();
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_STREQ(rows[0].name, "dns");
    EXPECT_STREQ(rows[3].name, "google");
}

TEST(Table1, PublishedCvValuesReproduced)
{
    // The Cv columns the paper prints, within its rounding.
    EXPECT_NEAR(table1Stats("dns").interarrivalCv(), 1.1, 0.05);
    EXPECT_NEAR(table1Stats("mail").interarrivalCv(), 1.9, 0.05);
    EXPECT_NEAR(table1Stats("shell").interarrivalCv(), 4.2, 0.1);
    EXPECT_NEAR(table1Stats("google").interarrivalCv(), 1.2, 0.05);
    EXPECT_NEAR(table1Stats("web").interarrivalCv(), 2.0, 0.05);
    EXPECT_NEAR(table1Stats("dns").serviceCv(), 1.0, 0.05);
    EXPECT_NEAR(table1Stats("mail").serviceCv(), 3.6, 0.1);
    EXPECT_NEAR(table1Stats("shell").serviceCv(), 15.0, 1.0);
    EXPECT_NEAR(table1Stats("google").serviceCv(), 1.1, 0.1);
    EXPECT_NEAR(table1Stats("web").serviceCv(), 3.4, 0.2);
}

TEST(Table1, LookupIsCaseInsensitive)
{
    EXPECT_STREQ(table1Stats("Google").name, "google");
    EXPECT_STREQ(table1Stats("SHELL").name, "shell");
    EXPECT_EXIT(table1Stats("nfs"), ::testing::ExitedWithCode(1),
                "unknown Table-1");
}

class Table1Workload : public ::testing::TestWithParam<const char*>
{
};

TEST_P(Table1Workload, AnalyticFitMatchesPublishedMoments)
{
    const WorkloadStats& stats = table1Stats(GetParam());
    const Workload workload = makeWorkload(stats);
    EXPECT_NEAR(workload.interarrival->mean(), stats.interarrivalMean,
                1e-9 * stats.interarrivalMean);
    EXPECT_NEAR(workload.interarrival->stddev(), stats.interarrivalSigma,
                1e-6 * stats.interarrivalSigma);
    EXPECT_NEAR(workload.service->mean(), stats.serviceMean,
                1e-9 * stats.serviceMean);
    EXPECT_NEAR(workload.service->stddev(), stats.serviceSigma,
                1e-6 * stats.serviceSigma);
}

TEST_P(Table1Workload, EmpiricalMaterializationPreservesMean)
{
    const WorkloadStats& stats = table1Stats(GetParam());
    Rng rng(0xE0);
    const Workload workload =
        makeEmpiricalWorkload(stats, rng, 100000, 1000);
    // Sample-level agreement: within a few percent at n = 100k for the
    // heavier-tailed workloads.
    const double tol = 0.1 * std::max(1.0, stats.serviceCv() / 3.0);
    EXPECT_NEAR(workload.interarrival->mean() / stats.interarrivalMean,
                1.0, tol);
    EXPECT_NEAR(workload.service->mean() / stats.serviceMean, 1.0, tol);
}

INSTANTIATE_TEST_SUITE_P(AllFive, Table1Workload,
                         ::testing::Values("dns", "mail", "shell",
                                           "google", "web"));

TEST(Workload, OfferedLoadDefinition)
{
    const Workload google = makeWorkload("google");
    // rho = E[S] / (k E[A]) = 4.2ms / (16 * 0.319ms) ~ 0.823.
    EXPECT_NEAR(offeredLoad(google, 16), 4.2e-3 / (16 * 319e-6), 1e-9);
}

TEST(Workload, ScaledToLoadHitsTarget)
{
    const Workload google = makeWorkload("google");
    for (double rho : {0.2, 0.5, 0.9}) {
        const Workload scaled = scaledToLoad(google, 16, rho);
        EXPECT_NEAR(offeredLoad(scaled, 16), rho, 1e-9) << "rho=" << rho;
        // Shape (Cv) is preserved by scaling.
        EXPECT_NEAR(scaled.interarrival->cv(), google.interarrival->cv(),
                    1e-9);
    }
}

TEST(Workload, ScaledArrivalRate)
{
    const Workload dns = makeWorkload("dns");
    const Workload doubled = scaledArrivalRate(dns, 2.0);
    EXPECT_NEAR(doubled.interarrival->mean(),
                dns.interarrival->mean() / 2.0, 1e-12);
}

TEST(Workload, SlowedService)
{
    const Workload web = makeWorkload("web");
    const Workload slowed = slowedService(web, 1.6);
    EXPECT_NEAR(slowed.service->mean(), web.service->mean() * 1.6, 1e-12);
    EXPECT_NEAR(slowed.service->cv(), web.service->cv(), 1e-9);
}

TEST(Workload, CloneIsDeep)
{
    const Workload web = makeWorkload("web");
    const Workload copy = web.clone();
    EXPECT_NE(copy.interarrival.get(), web.interarrival.get());
    EXPECT_DOUBLE_EQ(copy.service->mean(), web.service->mean());
}

TEST(WorkloadFiles, WriteAndLoadRoundTrip)
{
    const std::string dir = ::testing::TempDir();
    Rng rng(0xF11E);
    const auto written = writeWorkloadFiles(dir, rng, 20000, 200);
    EXPECT_EQ(written.size(), 10u);  // 5 workloads x 2 files

    const Workload loaded = loadWorkload(dir, "google");
    EXPECT_NEAR(loaded.interarrival->mean(), 319e-6, 0.1 * 319e-6);
    EXPECT_NEAR(loaded.service->mean(), 4.2e-3, 0.1 * 4.2e-3);
    for (const std::string& path : written)
        std::remove(path.c_str());
}

TEST(WorkloadFiles, LoadedWorkloadDrivesAFullSimulation)
{
    // The complete release workflow: synthesize .dist files, load them
    // back, and run an SQS experiment on the loaded (purely empirical)
    // workload — the utilization must match the Table-1 moments.
    const std::string dir = ::testing::TempDir();
    Rng rng(0xD157);
    const auto written = writeWorkloadFiles(dir, rng, 50000, 500);

    Workload loaded = loadWorkload(dir, "web");
    loaded = scaledToLoad(loaded, 4, 0.5);

    ExperimentSpec spec;
    spec.workload = std::move(loaded);
    spec.coresPerServer = 4;
    spec.sqs.accuracy = 0.05;
    spec.sqs.maxEvents = 30'000'000;
    const SqsResult result = Experiment(std::move(spec)).run(3);
    ASSERT_TRUE(result.converged);
    // Mean response >= mean service (75 ms) and shows queueing delay.
    EXPECT_GT(result.estimates[0].mean, 0.070);
    EXPECT_LT(result.estimates[0].mean, 0.75);
    for (const std::string& path : written)
        std::remove(path.c_str());
}

} // namespace
} // namespace bighouse
