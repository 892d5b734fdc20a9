/**
 * @file
 * Tests for JSON result export/import: full-fidelity round trip from a
 * real converged run, file round trip, and schema-violation rejection.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/results_io.hh"
#include "distribution/fit.hh"
#include "core/experiment.hh"

namespace bighouse {
namespace {

SqsResult
realResult()
{
    ExperimentSpec spec;
    spec.workload.name = "io-test";
    spec.workload.interarrival = fitMeanCv(2.0, 1.0);
    spec.workload.service = fitMeanCv(1.0, 1.5);
    spec.coresPerServer = 1;
    spec.sqs.accuracy = 0.1;
    return Experiment(std::move(spec)).run(55);
}

void
expectEqualResults(const SqsResult& a, const SqsResult& b)
{
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.events, b.events);
    EXPECT_DOUBLE_EQ(a.simulatedTime, b.simulatedTime);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
        const MetricEstimate& x = a.estimates[i];
        const MetricEstimate& y = b.estimates[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.phase, y.phase);
        EXPECT_EQ(x.accepted, y.accepted);
        EXPECT_EQ(x.lag, y.lag);
        EXPECT_DOUBLE_EQ(x.mean, y.mean);
        EXPECT_DOUBLE_EQ(x.meanHalfWidth, y.meanHalfWidth);
        EXPECT_DOUBLE_EQ(x.stddev, y.stddev);
        ASSERT_EQ(x.quantiles.size(), y.quantiles.size());
        for (std::size_t qi = 0; qi < x.quantiles.size(); ++qi) {
            EXPECT_DOUBLE_EQ(x.quantiles[qi].q, y.quantiles[qi].q);
            EXPECT_DOUBLE_EQ(x.quantiles[qi].value,
                             y.quantiles[qi].value);
            EXPECT_DOUBLE_EQ(x.quantiles[qi].lower,
                             y.quantiles[qi].lower);
            EXPECT_DOUBLE_EQ(x.quantiles[qi].upper,
                             y.quantiles[qi].upper);
        }
    }
}

TEST(ResultsIo, JsonRoundTripIsLossless)
{
    const SqsResult original = realResult();
    const SqsResult loaded = resultFromJson(resultToJson(original));
    expectEqualResults(original, loaded);
}

TEST(ResultsIo, FileRoundTrip)
{
    const SqsResult original = realResult();
    const std::string path = ::testing::TempDir() + "/bh_result.json";
    writeResult(path, original);
    const SqsResult loaded = readResult(path);
    std::remove(path.c_str());
    expectEqualResults(original, loaded);
}

TEST(ResultsIo, SerializedFormIsPlainJson)
{
    const SqsResult original = realResult();
    const std::string text = resultToJson(original).dump(2);
    const JsonParseResult reparsed = parseJson(text);
    ASSERT_TRUE(reparsed.ok) << reparsed.error;
    EXPECT_NE(text.find("\"response_time\""), std::string::npos);
    EXPECT_NE(text.find("\"quantiles\""), std::string::npos);
}

TEST(ResultsIo, PointStatusNamesRoundTrip)
{
    // Running is the live-status addition: a point claimed by a worker
    // but not yet finished. It must survive a name round trip like the
    // ledgered states do.
    for (const PointStatus status :
         {PointStatus::Pending, PointStatus::Running, PointStatus::Cached,
          PointStatus::Ran, PointStatus::Failed}) {
        EXPECT_EQ(pointStatusFromName(pointStatusName(status)), status);
    }
    EXPECT_STREQ(pointStatusName(PointStatus::Running), "running");
}

TEST(ResultsIoDeathTest, RejectsMalformedDocuments)
{
    EXPECT_EXIT(resultFromJson(parseJson("{}").value),
                ::testing::ExitedWithCode(1), "converged");
    EXPECT_EXIT(
        resultFromJson(
            parseJson(R"({"converged": true, "events": 1,
                           "simulatedTime": 1, "wallSeconds": 1})")
                .value),
        ::testing::ExitedWithCode(1), "estimates");
    EXPECT_EXIT(
        resultFromJson(
            parseJson(R"({"converged": true, "events": 1,
                           "simulatedTime": 1, "wallSeconds": 1,
                           "estimates": [{"name": "x",
                                           "phase": "nonsense"}]})")
                .value),
        ::testing::ExitedWithCode(1), "phase");
    EXPECT_EXIT(readResult("/nonexistent/result.json"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(ResultsIo, CheckpointRoundTripKeepsIdentityAndSamples)
{
    ParallelCheckpoint cp;
    cp.identity = "config-0123456789abcdef";
    cp.rootSeed = 42;
    cp.epoch = 1;
    cp.baseEvents = 1000;
    cp.metricNames = {"response_time"};
    CheckpointSample sample;
    sample.count = 3;
    sample.mean = 2.0;
    sample.variance = 1.0;
    sample.min = 1.0;
    sample.max = 3.0;
    sample.histogram = "loglinear256 3 0 1 3 261888 1 3";
    cp.slaves.push_back(CheckpointSlave{500, {sample}});
    const ParallelCheckpoint back = checkpointFromJson(checkpointToJson(cp));
    EXPECT_EQ(back.identity, cp.identity);
    EXPECT_EQ(back.rootSeed, 42u);
    EXPECT_EQ(back.epoch, 1u);
    EXPECT_EQ(back.metricNames, cp.metricNames);
    ASSERT_EQ(back.slaves.size(), 1u);
    EXPECT_EQ(back.slaves[0].samples[0].histogram, sample.histogram);
    EXPECT_EQ(checkpointToJson(cp).find("format")->asString(),
              "bighouse-checkpoint-v2");
}

TEST(ResultsIoDeathTest, RejectsVersionOneCheckpointByName)
{
    // v1 histograms used calibrated bins; the message names the version
    // so the user knows why an old checkpoint cannot resume.
    EXPECT_EXIT(checkpointFromJson(
                    parseJson(R"({"format": "bighouse-checkpoint-v1",
                                   "rootSeed": 1, "epoch": 0,
                                   "baseEvents": 0, "metrics": [],
                                   "schemes": [], "base": [],
                                   "slaves": []})")
                        .value),
                ::testing::ExitedWithCode(1), "bighouse-checkpoint-v1");
    EXPECT_EXIT(checkpointFromJson(parseJson(R"({"format": "x"})").value),
                ::testing::ExitedWithCode(1), "not a BigHouse checkpoint");
}

} // namespace
} // namespace bighouse
