/**
 * @file
 * Bit-reproducibility of the discrete-event hot path.
 *
 * The queue rewrite (inline callbacks, slot tombstones, compaction) must
 * not change *what* the simulator executes, only how fast. Two referees:
 *
 *  1. A model-based diff: a deliberately naive reference queue (ordered
 *     set over (time, seq)) replays the same randomized push/cancel/pop
 *     workload as EventQueue; the popped (time, seq) traces must match
 *     element for element. The reference implements the documented
 *     semantics — min (time, seq), FIFO ties, cancel removes — with none
 *     of the production data structures, so any divergence is a real
 *     semantic change, not a shared bug.
 *
 *  2. A full fig2_phases-style run (M/G/1, autocorrelated response-time
 *     metric, convergence-terminated) executed twice under the same
 *     seed, with the engine trace hook recording every dispatched
 *     (time, seq) pair: the traces and the final estimates must be
 *     bit-identical.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "core/sqs.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"
#include "obs/convergence.hh"
#include "obs/telemetry.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"
#include "sim/event_queue.hh"

namespace bighouse {
namespace {

using TimeSeq = std::pair<Time, std::uint64_t>;

/** Naive reference: ordered set keyed by (time, seq). */
class ReferenceQueue
{
  public:
    std::uint64_t
    push(Time time)
    {
        const std::uint64_t seq = next++;
        entries.insert({time, seq});
        return seq;
    }

    bool
    cancel(Time time, std::uint64_t seq)
    {
        return entries.erase({time, seq}) > 0;
    }

    TimeSeq
    pop()
    {
        const TimeSeq front = *entries.begin();
        entries.erase(entries.begin());
        return front;
    }

    bool empty() const { return entries.empty(); }

    std::size_t size() const { return entries.size(); }

  private:
    std::set<TimeSeq> entries;
    std::uint64_t next = 0;
};

TEST(TraceReproducibility, QueueMatchesReferenceUnderRandomWorkload)
{
    EventQueue queue;
    ReferenceQueue reference;
    Rng rng(2718);

    struct Pending
    {
        EventId id;
        Time time;
        std::uint64_t seq;
    };
    std::vector<Pending> pending;
    std::vector<TimeSeq> queueTrace;
    std::vector<TimeSeq> referenceTrace;

    double clock = 0.0;
    for (int step = 0; step < 30000; ++step) {
        const double roll = rng.uniform01();
        if (roll < 0.55 || queue.empty()) {
            // Coarse times force frequent (time, seq) FIFO tie-breaks.
            const Time at =
                clock + static_cast<double>(rng.below(8));
            const EventId id = queue.push(at, [] {});
            const std::uint64_t seq = reference.push(at);
            ASSERT_EQ(id.seq, seq);
            pending.push_back({id, at, seq});
        } else if (roll < 0.8 && !pending.empty()) {
            const std::size_t pick = rng.below(pending.size());
            const Pending victim = pending[pick];
            pending.erase(pending.begin()
                          + static_cast<std::ptrdiff_t>(pick));
            ASSERT_EQ(queue.cancel(victim.id),
                      reference.cancel(victim.time, victim.seq));
        } else {
            const auto popped = queue.pop();
            queueTrace.emplace_back(popped.time, popped.seq);
            referenceTrace.push_back(reference.pop());
            clock = popped.time;
        }
        ASSERT_EQ(queue.size(), reference.size());
    }
    while (!queue.empty()) {
        const auto popped = queue.pop();
        queueTrace.emplace_back(popped.time, popped.seq);
        referenceTrace.push_back(reference.pop());
    }
    EXPECT_TRUE(reference.empty());
    ASSERT_EQ(queueTrace.size(), referenceTrace.size());
    for (std::size_t i = 0; i < queueTrace.size(); ++i) {
        ASSERT_EQ(queueTrace[i], referenceTrace[i])
            << "traces diverge at pop " << i;
    }
}

/** One fig2_phases-style run; returns the dispatched (time, seq) trace. */
SqsResult
runPhasesScenario(std::vector<TimeSeq>& trace)
{
    SqsConfig config;
    config.warmupSamples = 500;
    config.calibrationSamples = 1000;
    config.accuracy = 0.10;
    config.maxEvents = 400000;  // hard stop: the trace is the product
    SqsSimulation sim(config, 2024);
    const auto id = sim.addMetric("response_time");

    auto server = std::make_shared<Server>(sim.engine(), 1);
    StatsCollection& stats = sim.stats();
    server->setCompletionHandler([&stats, id](const Task& task) {
        stats.record(id, task.responseTime());
    });
    auto source = std::make_shared<Source>(
        sim.engine(), *server, std::make_unique<Exponential>(0.8),
        fitMeanCv(1.0, 2.0), sim.rootRng().split());
    source->start();
    sim.holdModel(server);
    sim.holdModel(source);

    sim.engine().setTraceHook(
        [](void* ctx, Time time, std::uint64_t seq) {
            static_cast<std::vector<TimeSeq>*>(ctx)->emplace_back(time,
                                                                  seq);
        },
        &trace);
    return sim.run();
}

TEST(TraceReproducibility, PhasesRunIsBitIdenticalAcrossReplays)
{
    std::vector<TimeSeq> first;
    std::vector<TimeSeq> second;
    const SqsResult a = runPhasesScenario(first);
    const SqsResult b = runPhasesScenario(second);

    ASSERT_GT(first.size(), 10000u);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        // Bitwise time equality on purpose: reproducibility is exact,
        // not approximate.
        ASSERT_EQ(first[i], second[i]) << "traces diverge at event " << i;
    }

    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.simulatedTime, b.simulatedTime);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
        EXPECT_EQ(a.estimates[i].accepted, b.estimates[i].accepted);
        EXPECT_EQ(a.estimates[i].mean, b.estimates[i].mean);
        EXPECT_EQ(a.estimates[i].stddev, b.estimates[i].stddev);
    }
}

/**
 * Run the phases scenario with an arbitrary pre-run instrument; returns
 * the result and the response-time histogram's serialized bytes (the
 * strongest observable: every bin count must match).
 */
SqsResult
runInstrumented(const std::function<void(SqsSimulation&)>& instrument,
                std::string& histogramBytes,
                const std::shared_ptr<Timeline>& timeline = nullptr)
{
    SqsConfig config;
    config.warmupSamples = 500;
    config.calibrationSamples = 1000;
    config.accuracy = 0.10;
    config.maxEvents = 400000;
    SqsSimulation sim(config, 2024);
    const auto id = sim.addMetric("response_time");

    auto server = std::make_shared<Server>(sim.engine(), 1);
    StatsCollection& stats = sim.stats();
    server->setCompletionHandler([&stats, id](const Task& task) {
        stats.record(id, task.responseTime());
    });
    auto source = std::make_shared<Source>(
        sim.engine(), *server, std::make_unique<Exponential>(0.8),
        fitMeanCv(1.0, 2.0), sim.rootRng().split());
    source->start();
    sim.holdModel(server);
    sim.holdModel(source);
    if (timeline != nullptr) {
        timeline->registerServers(1);
        server->setStateProbe(&Timeline::serverProbe, timeline.get(), 0);
        sim.setTimeline(timeline);
    }
    if (instrument)
        instrument(sim);
    SqsResult result = sim.run();
    histogramBytes = sim.stats()
                         .metricByName("response_time")
                         .sample()
                         .histogram.serialize();
    return result;
}

/**
 * The whole observability stack — trace ring, batch-boundary telemetry
 * sampling, convergence recording — attached at once must leave the
 * simulation bit-identical to a bare run: same event count, same
 * simulated clock, same estimates, same histogram bytes.
 */
TEST(TraceReproducibility, ObservabilityHooksDoNotPerturbResults)
{
    std::string bareHistogram;
    const SqsResult bare = runInstrumented({}, bareHistogram);

    TraceSet traces;
    TelemetryRegistry telemetry;
    ConvergenceRecorder recorder;
    TimelineSpec timelineSpec;
    timelineSpec.window = 10.0;
    auto timeline = std::make_shared<Timeline>(timelineSpec);
    std::string observedHistogram;
    const SqsResult observed = runInstrumented(
        [&](SqsSimulation& sim) {
            traces.attach(sim.engine(), "serial");
            TelemetrySlab& slab = telemetry.slab("serial");
            sim.setBatchObserver([&recorder, &slab](
                                     const SqsSimulation& s,
                                     std::uint64_t events) {
                recorder.observe(s.stats(), events);
                sampleEngineTelemetry(slab, s.engine());
                sampleStatsTelemetry(slab, s.stats());
            });
        },
        observedHistogram, timeline);

    EXPECT_GT(recorder.sampleCount(), 0u);
    EXPECT_GT(traces.trackCount(), 0u);
    // The timeline rode along and actually recorded something...
    ASSERT_TRUE(observed.timeline.has_value());
    EXPECT_FALSE(observed.timeline->tracks.empty());
    bool sawWindows = false;
    for (const TimelineTrackData& track : observed.timeline->tracks)
        sawWindows = sawWindows || !track.windows.empty();
    EXPECT_TRUE(sawWindows);
    // ...while the bare run carried none.
    EXPECT_FALSE(bare.timeline.has_value());
    EXPECT_EQ(bare.events, observed.events);
    EXPECT_EQ(bare.simulatedTime, observed.simulatedTime);
    EXPECT_EQ(bare.converged, observed.converged);
    ASSERT_EQ(bare.estimates.size(), observed.estimates.size());
    for (std::size_t i = 0; i < bare.estimates.size(); ++i) {
        EXPECT_EQ(bare.estimates[i].accepted,
                  observed.estimates[i].accepted);
        EXPECT_EQ(bare.estimates[i].offered,
                  observed.estimates[i].offered);
        EXPECT_EQ(bare.estimates[i].mean, observed.estimates[i].mean);
        EXPECT_EQ(bare.estimates[i].stddev,
                  observed.estimates[i].stddev);
        EXPECT_EQ(bare.estimates[i].meanHalfWidth,
                  observed.estimates[i].meanHalfWidth);
    }
    // Histograms agree bin for bin.
    EXPECT_EQ(bareHistogram, observedHistogram);
}

} // namespace
} // namespace bighouse
