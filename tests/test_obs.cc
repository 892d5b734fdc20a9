/**
 * @file
 * Observability layer (src/obs) tests: trace ring buffers and Chrome
 * trace-event rendering, the telemetry registry, the convergence
 * recorder, status documents, and build provenance.
 *
 * The load-bearing properties: traces stay bounded and oldest-dropping,
 * the Chrome export is schema-valid with one named track per simulation
 * instance, the convergence series is monotone and byte-stable across
 * reruns of the same seed, status files are rewritten atomically with a
 * terminal flag, and none of it is allowed to touch the simulated event
 * stream (covered in test_trace_reproducibility.cc).
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/build_info.hh"
#include "core/sqs.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"
#include "obs/convergence.hh"
#include "obs/status.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "queueing/failure.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"

namespace bighouse {
namespace {

/** Small M/G/1 scenario; `instrument` runs before the event loop. */
SqsResult
runScenario(std::uint64_t maxEvents, double accuracy,
            const std::function<void(SqsSimulation&)>& instrument)
{
    SqsConfig config;
    config.warmupSamples = 200;
    config.calibrationSamples = 600;  // the runs-up test's minimum
    config.accuracy = accuracy;
    config.maxEvents = maxEvents;
    SqsSimulation sim(config, 99);
    const auto id = sim.addMetric("response_time");

    auto server = std::make_shared<Server>(sim.engine(), 1);
    StatsCollection& stats = sim.stats();
    server->setCompletionHandler([&stats, id](const Task& task) {
        stats.record(id, task.responseTime());
    });
    auto source = std::make_shared<Source>(
        sim.engine(), *server, std::make_unique<Exponential>(0.7),
        fitMeanCv(1.0, 1.5), sim.rootRng().split());
    source->start();
    sim.holdModel(server);
    sim.holdModel(source);
    if (instrument)
        instrument(sim);
    return sim.run();
}

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

bool
fileExists(const std::string& path)
{
    return std::ifstream(path).good();
}

// --- trace -------------------------------------------------------------

TEST(TraceBufferTest, KeepsEverythingBelowCapacityOldestFirst)
{
    TraceBuffer buffer("t", 8);
    for (int i = 0; i < 3; ++i)
        buffer.record(static_cast<Time>(i) * 0.5,
                      static_cast<std::uint64_t>(i));
    EXPECT_EQ(buffer.total(), 3u);
    EXPECT_EQ(buffer.dropped(), 0u);
    const auto records = buffer.records();
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].seq, i);
        EXPECT_EQ(records[i].time, static_cast<Time>(i) * 0.5);
    }
}

TEST(TraceBufferTest, OverwritesOldestWhenFullAndCountsDropped)
{
    TraceBuffer buffer("t", 4);
    for (std::uint64_t i = 0; i < 10; ++i)
        buffer.record(static_cast<Time>(i), i);
    EXPECT_EQ(buffer.total(), 10u);
    EXPECT_EQ(buffer.dropped(), 6u);
    const auto records = buffer.records();
    ASSERT_EQ(records.size(), 4u);
    // The survivors are the newest four, still oldest-first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(records[i].seq, 6u + i);
}

TEST(TraceBufferTest, HookFeedsTheBuffer)
{
    TraceBuffer buffer("t", 4);
    TraceBuffer::hook(&buffer, 1.5, 7);
    const auto records = buffer.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].time, 1.5);
    EXPECT_EQ(records[0].seq, 7u);
}

TEST(TraceSetTest, ChromeExportIsSchemaValidWithOneTrackPerSlave)
{
    TraceSet traces(16);
    for (int s = 0; s < 4; ++s) {
        TraceBuffer& track =
            traces.addTrack("slave-" + std::to_string(s));
        track.record(0.25, 1);
        track.record(0.75, 2);
    }
    ASSERT_EQ(traces.trackCount(), 4u);

    const JsonValue doc = traces.chromeTraceJson();
    ASSERT_TRUE(doc.isObject());
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::vector<std::string> trackNames;
    std::set<double> tids;
    for (const JsonValue& event : events->asArray()) {
        const std::string& phase =
            event.find("ph")->asString();
        EXPECT_EQ(event.find("pid")->asNumber(), 1.0);
        tids.insert(event.find("tid")->asNumber());
        if (phase == "M") {
            EXPECT_EQ(event.find("name")->asString(), "thread_name");
            trackNames.push_back(
                event.find("args")->find("name")->asString());
        } else {
            ASSERT_EQ(phase, "X");
            // ts is microseconds: 0.25s -> 250000, 0.75s -> 750000.
            const double ts = event.find("ts")->asNumber();
            EXPECT_TRUE(ts == 0.25e6 || ts == 0.75e6) << ts;
            EXPECT_GE(event.find("dur")->asNumber(), 0.0);
        }
    }
    ASSERT_EQ(trackNames.size(), 4u);
    EXPECT_EQ(tids.size(), 4u);  // one tid per slave track
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(trackNames[static_cast<std::size_t>(s)],
                  "slave-" + std::to_string(s));
}

TEST(TraceSetTest, CompleteEventDurationSpansToNextRecord)
{
    TraceSet traces(8);
    TraceBuffer& track = traces.addTrack("serial");
    track.record(1.0, 0);
    track.record(3.0, 1);
    const JsonValue doc = traces.chromeTraceJson();
    std::vector<double> durations;
    for (const JsonValue& event : doc.find("traceEvents")->asArray()) {
        if (event.find("ph")->asString() == "X")
            durations.push_back(event.find("dur")->asNumber());
    }
    ASSERT_EQ(durations.size(), 2u);
    EXPECT_EQ(durations[0], 2e6);  // 1.0s -> 3.0s gap, in microseconds
    EXPECT_EQ(durations[1], 0.0);  // last record has nothing to span to
}

TEST(TraceSetTest, AttachedBufferSeesEveryDispatchedEvent)
{
    TraceSet traces(1 << 20);
    SqsResult result = runScenario(40000, 0.2, [&](SqsSimulation& sim) {
        traces.attach(sim.engine(), "serial");
    });
    ASSERT_EQ(traces.trackCount(), 1u);
    const JsonValue doc = traces.chromeTraceJson();
    // One X event per dispatch plus one M metadata event.
    EXPECT_EQ(doc.find("traceEvents")->asArray().size(),
              static_cast<std::size_t>(result.events) + 1);
}

// --- telemetry ---------------------------------------------------------

TEST(TelemetryTest, SlabCountersAddSetAndRead)
{
    TelemetrySlab slab("s");
    slab.add(TelemetryCounter::BatchesObserved, 5);
    slab.add(TelemetryCounter::BatchesObserved);
    EXPECT_EQ(slab.value(TelemetryCounter::BatchesObserved), 6u);
    slab.set(TelemetryCounter::BatchesObserved, 2);
    EXPECT_EQ(slab.value(TelemetryCounter::BatchesObserved), 2u);
}

TEST(TelemetryTest, RegistryReturnsStableSlabPerLabel)
{
    TelemetryRegistry registry;
    TelemetrySlab& a = registry.slab("alpha");
    TelemetrySlab& again = registry.slab("alpha");
    EXPECT_EQ(&a, &again);
    EXPECT_NE(&a, &registry.slab("beta"));
}

TEST(TelemetryTest, SnapshotOrdersSlabsAndSumsTotals)
{
    TelemetryRegistry registry;
    registry.slab("zeta").add(TelemetryCounter::EventsExecuted, 3);
    registry.slab("alpha").add(TelemetryCounter::EventsExecuted, 4);
    const JsonValue doc = registry.snapshot();
    EXPECT_EQ(doc.find("format")->asString(), "bighouse-telemetry-v1");
    ASSERT_NE(doc.find("build"), nullptr);
    const auto& slabs = doc.find("slabs")->asArray();
    ASSERT_EQ(slabs.size(), 2u);
    EXPECT_EQ(slabs[0].find("label")->asString(), "alpha");
    EXPECT_EQ(slabs[1].find("label")->asString(), "zeta");
    EXPECT_EQ(
        doc.find("totals")->find("engine.eventsExecuted")->asNumber(),
        7.0);
}

TEST(TelemetryTest, SampledCountersMatchTheFinishedRun)
{
    TelemetryRegistry registry;
    TelemetrySlab& slab = registry.slab("serial");
    const SqsResult result =
        runScenario(40000, 0.2, [&](SqsSimulation& sim) {
            sim.setBatchObserver([&slab](const SqsSimulation& s,
                                         std::uint64_t) {
                sampleEngineTelemetry(slab, s.engine());
                sampleStatsTelemetry(slab, s.stats());
                slab.add(TelemetryCounter::BatchesObserved);
            });
        });
    EXPECT_EQ(slab.value(TelemetryCounter::EventsExecuted),
              result.events);
    std::uint64_t offered = 0;
    for (const MetricEstimate& estimate : result.estimates)
        offered += estimate.offered;
    EXPECT_EQ(slab.value(TelemetryCounter::SamplesOffered), offered);
    EXPECT_GT(slab.value(TelemetryCounter::BatchesObserved), 0u);
}

TEST(TelemetryTest, EveryFailureCounterReachesItsOwnCell)
{
    // Distinct nonzero values: a field written to the wrong cell, or to
    // none, shows up as a mismatch.
    FailureTotals totals;
    FailureCounters& c = totals.counters;
    c.failuresInjected = 1;
    c.repairsCompleted = 2;
    c.tasksDropped = 3;
    c.tasksRequeued = 4;
    c.tasksRejected = 5;
    c.tasksRetried = 6;
    c.tasksLost = 7;
    c.tasksCompletedOk = 8;
    c.tasksTimedOut = 9;
    c.staleCompletions = 10;
    c.backendsEjected = 11;
    c.backendsReadmitted = 12;
    TelemetryRegistry registry;
    sampleFailureTelemetry(registry.slab("serial"), totals);

    const std::vector<std::pair<const char*, std::uint64_t>> expected = {
        {"failures.injected", c.failuresInjected},
        {"failures.repaired", c.repairsCompleted},
        {"failures.tasksDropped", c.tasksDropped},
        {"failures.tasksRequeued", c.tasksRequeued},
        {"failures.tasksRejected", c.tasksRejected},
        {"failures.tasksRetried", c.tasksRetried},
        {"failures.tasksLost", c.tasksLost},
        {"failures.tasksCompletedOk", c.tasksCompletedOk},
        {"failures.tasksTimedOut", c.tasksTimedOut},
        {"failures.staleCompletions", c.staleCompletions},
        {"failures.backendsEjected", c.backendsEjected},
        {"failures.backendsReadmitted", c.backendsReadmitted},
    };
    // One cell per FailureCounters field, and no field left out.
    static_assert(sizeof(FailureCounters) == 12 * sizeof(std::uint64_t));
    const JsonValue doc = registry.snapshot();
    const JsonValue* totalsJson = doc.find("totals");
    ASSERT_NE(totalsJson, nullptr);
    std::size_t failureCells = 0;
    for (const auto& entry : totalsJson->asObject()) {
        if (entry.first.rfind("failures.", 0) == 0)
            ++failureCells;
    }
    EXPECT_EQ(failureCells, expected.size());
    for (const auto& [name, value] : expected) {
        const JsonValue* cell = totalsJson->find(name);
        ASSERT_NE(cell, nullptr) << name;
        EXPECT_EQ(cell->asNumber(), static_cast<double>(value)) << name;
    }
}

TEST(TelemetryTest, WriteIsAtomicAndParseable)
{
    TelemetryRegistry registry;
    registry.slab("serial").add(TelemetryCounter::EventsExecuted, 42);
    const std::string path = tempPath("telemetry.json");
    registry.write(path);
    EXPECT_FALSE(fileExists(path + ".tmp"));
    const JsonParseResult parsed = parseJson(slurp(path));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.find("format")->asString(),
              "bighouse-telemetry-v1");
    std::remove(path.c_str());
}

// --- convergence -------------------------------------------------------

TEST(ConvergenceTest, SeriesIsMonotoneAndByteStableAcrossReruns)
{
    const auto record = [](ConvergenceRecorder& recorder) {
        return runScenario(0, 0.2, [&](SqsSimulation& sim) {
            recorder.attachTo(sim);
        });
    };
    ConvergenceRecorder first;
    ConvergenceRecorder second;
    const SqsResult a = record(first);
    const SqsResult b = record(second);
    ASSERT_TRUE(a.converged);
    ASSERT_GT(first.sampleCount(), 0u);

    const JsonValue doc = first.toJson();
    EXPECT_EQ(doc.find("format")->asString(), "bighouse-convergence-v1");
    const auto& series = doc.find("metrics")
                             ->find("response_time")
                             ->find("samples")
                             ->asArray();
    ASSERT_EQ(series.size(), first.sampleCount());
    double lastEvents = -1.0;
    double lastAccepted = -1.0;
    for (const JsonValue& sample : series) {
        const double events = sample.find("events")->asNumber();
        const double accepted = sample.find("accepted")->asNumber();
        EXPECT_GT(events, lastEvents);
        EXPECT_GE(accepted, lastAccepted);
        lastEvents = events;
        lastAccepted = accepted;
    }
    // Same seed -> the recorded history is byte-stable.
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(doc.dump(2), second.toJson().dump(2));
    // A converged run has no bottleneck.
    EXPECT_EQ(first.bottleneck(), "");
}

TEST(ConvergenceTest, BottleneckNamesTheUnconvergedMetric)
{
    ConvergenceRecorder recorder;
    // Tight accuracy + a low maxEvents valve: the run must stop short.
    const SqsResult result =
        runScenario(40000, 0.001, [&](SqsSimulation& sim) {
            recorder.attachTo(sim);
        });
    ASSERT_FALSE(result.converged);
    EXPECT_EQ(recorder.bottleneck(), "response_time");
    EXPECT_EQ(recorder.toJson().find("bottleneck")->asString(),
              "response_time");
}

TEST(ConvergenceTest, BottleneckIsTheLargestUnconvergedDeficit)
{
    std::vector<MetricEstimate> estimates(3);
    estimates[0].name = "done";
    estimates[0].converged = true;
    estimates[0].required = 1000;
    estimates[1].name = "close";
    estimates[1].accepted = 90;
    estimates[1].required = 100;
    estimates[2].name = "far";
    estimates[2].accepted = 10;
    estimates[2].required = 100;
    ASSERT_NE(bottleneckMetric(estimates), nullptr);
    EXPECT_EQ(bottleneckMetric(estimates)->name, "far");
    estimates[1].converged = estimates[2].converged = true;
    EXPECT_EQ(bottleneckMetric(estimates), nullptr);
}

TEST(ConvergenceTest, WriteIsAtomic)
{
    ConvergenceRecorder recorder;
    runScenario(40000, 0.2, [&](SqsSimulation& sim) {
        recorder.attachTo(sim);
    });
    const std::string path = tempPath("convergence.json");
    recorder.write(path);
    EXPECT_FALSE(fileExists(path + ".tmp"));
    const JsonParseResult parsed = parseJson(slurp(path));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::remove(path.c_str());
}

// --- status ------------------------------------------------------------

TEST(StatusTest, SerialStatusCarriesTerminalFlagAndTermination)
{
    const SqsResult result = runScenario(0, 0.2, {});
    const JsonValue live =
        serialStatusJson(result.estimates, 1000, 0.5, false, false,
                         nullptr);
    EXPECT_EQ(live.find("format")->asString(), "bighouse-status-v1");
    EXPECT_EQ(live.find("kind")->asString(), "serial");
    EXPECT_FALSE(live.find("terminal")->asBool());
    EXPECT_TRUE(live.find("termination")->isNull());

    const JsonValue done = serialStatusJson(
        result.estimates, result.events, 1.0, true, result.converged,
        terminationReasonName(result.termination));
    EXPECT_TRUE(done.find("terminal")->asBool());
    EXPECT_EQ(done.find("termination")->asString(), "converged");
    ASSERT_NE(done.find("metrics")->find("response_time"), nullptr);
}

TEST(StatusTest, ParallelStatusRendersConvergedSlavesOnTerminal)
{
    ParallelProgressSnapshot snapshot;
    snapshot.phase = "merged";
    snapshot.converged = true;
    snapshot.healthySlaves = 2;
    snapshot.slaves.resize(2);
    snapshot.slaves[0].status = SlaveStatus::Ok;
    snapshot.slaves[1].status = SlaveStatus::Failed;
    const JsonValue doc = parallelStatusJson(snapshot, true);
    EXPECT_EQ(doc.find("kind")->asString(), "parallel");
    const auto& slaves = doc.find("slaves")->asArray();
    EXPECT_EQ(slaves[0].find("state")->asString(), "converged");
    EXPECT_EQ(slaves[1].find("state")->asString(), "failed");
}

TEST(StatusTest, StatusFileIsRewrittenAtomically)
{
    const std::string path = tempPath("status.json");
    ParallelProgressSnapshot snapshot;
    snapshot.phase = "measurement";
    snapshot.slaves.resize(1);
    writeJsonFile(path, parallelStatusJson(snapshot, false));
    snapshot.phase = "merged";
    writeJsonFile(path, parallelStatusJson(snapshot, true));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    const JsonParseResult parsed = parseJson(slurp(path));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.value.find("terminal")->asBool());
    EXPECT_EQ(parsed.value.find("phase")->asString(), "merged");
    std::remove(path.c_str());
}

TEST(StatusTest, ProgressLinesNameTheInterestingFacts)
{
    MetricEstimate lagging;
    lagging.name = "response_time";
    lagging.accepted = 10;
    lagging.required = 100;
    const std::string serial = serialProgressLine({lagging}, 12345);
    EXPECT_NE(serial.find("events 12345"), std::string::npos);
    EXPECT_NE(serial.find("response_time"), std::string::npos);
    EXPECT_NE(serial.find("10/100"), std::string::npos);

    ParallelProgressSnapshot snapshot;
    snapshot.phase = "measurement";
    snapshot.healthySlaves = 3;
    snapshot.slaves.resize(4);
    snapshot.totalEvents = 777;
    const std::string parallel = parallelProgressLine(snapshot);
    EXPECT_NE(parallel.find("measurement"), std::string::npos);
    EXPECT_NE(parallel.find("3/4"), std::string::npos);

    CampaignReport report;
    report.outcomes.resize(4);
    report.cached = 1;
    report.ran = 2;
    report.failed = 0;
    report.pending = 1;
    const std::string campaign = campaignProgressLine(report);
    EXPECT_NE(campaign.find("4 points"), std::string::npos);
    EXPECT_NE(campaign.find("1 cached, 2 ran, 0 failed, 1 pending"),
              std::string::npos);
}

// --- build provenance --------------------------------------------------

TEST(BuildInfoTest, StampedFieldsAreNeverEmpty)
{
    const BuildInfo& build = buildInfo();
    EXPECT_FALSE(build.gitDescribe.empty());
    EXPECT_FALSE(build.buildType.empty());
    EXPECT_FALSE(build.compiler.empty());
    EXPECT_FALSE(build.sanitizer.empty());
    const std::string line = buildInfoLine("bh_test");
    EXPECT_NE(line.find("bh_test"), std::string::npos);
    EXPECT_NE(line.find(build.gitDescribe), std::string::npos);
}

} // namespace
} // namespace bighouse
