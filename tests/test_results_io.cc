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
    cp.events = 1500;
    cp.metricNames = {"response_time", "never_measured"};
    MetricSample sample;
    for (double x : {1.0, 2.0, 3.0, 0.0}) {
        sample.accumulator.add(x);
        sample.histogram.add(x);
    }
    cp.samples = {sample, MetricSample{}};
    const JsonValue json = checkpointToJson(cp);
    EXPECT_EQ(json.find("format")->asString(), "bighouse-checkpoint-v3");
    const ParallelCheckpoint back = checkpointFromJson(json);
    EXPECT_EQ(back.identity, cp.identity);
    EXPECT_EQ(back.rootSeed, 42u);
    EXPECT_EQ(back.epoch, 1u);
    EXPECT_EQ(back.events, 1500u);
    EXPECT_EQ(back.metricNames, cp.metricNames);
    ASSERT_EQ(back.samples.size(), 2u);
    const Accumulator& acc = back.samples[0].accumulator;
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 1.5);
    EXPECT_DOUBLE_EQ(acc.variance(), sample.accumulator.variance());
    EXPECT_EQ(acc.min(), 0.0);
    EXPECT_EQ(acc.max(), 3.0);
    EXPECT_EQ(back.samples[0].histogram.serialize(),
              sample.histogram.serialize());
    // An empty sample (a metric no slave measured yet) survives too.
    EXPECT_EQ(back.samples[1].accumulator.count(), 0u);
    EXPECT_EQ(back.samples[1].histogram.count(), 0u);
}

TEST(ResultsIoDeathTest, RejectsVersionOneCheckpointByName)
{
    // v1 histograms used calibrated bins, v2 stored per-slave samples;
    // the message names the version so the user knows why an old
    // checkpoint cannot resume.
    EXPECT_EXIT(checkpointFromJson(
                    parseJson(R"({"format": "bighouse-checkpoint-v1",
                                   "rootSeed": 1, "epoch": 0,
                                   "baseEvents": 0, "metrics": [],
                                   "schemes": [], "base": [],
                                   "slaves": []})")
                        .value),
                ::testing::ExitedWithCode(1), "bighouse-checkpoint-v1");
    EXPECT_EXIT(checkpointFromJson(
                    parseJson(R"({"format": "bighouse-checkpoint-v2",
                                   "identity": "config-0", "rootSeed": 1,
                                   "epoch": 0, "baseEvents": 0,
                                   "metrics": ["x"], "base": [],
                                   "slaves": []})")
                        .value),
                ::testing::ExitedWithCode(1), "bighouse-checkpoint-v2");
    EXPECT_EXIT(checkpointFromJson(parseJson(R"({"format": "x"})").value),
                ::testing::ExitedWithCode(1), "not a BigHouse checkpoint");
}

TEST(ResultsIoDeathTest, RejectsCheckpointWhoseHistogramDisagreesWithCount)
{
    // A metric's moments and histogram describe one sample; a file where
    // they disagree was edited or truncated and must not seed a resume.
    MetricSample sample;
    sample.accumulator.add(1.0);
    sample.histogram.add(1.0);
    sample.histogram.add(2.0);
    ParallelCheckpoint cp;
    cp.metricNames = {"response_time"};
    cp.samples = {sample};
    EXPECT_EXIT(checkpointFromJson(checkpointToJson(cp)),
                ::testing::ExitedWithCode(1),
                "'response_time' has 1 observations but its histogram "
                "holds 2");
}

} // namespace
} // namespace bighouse
