/**
 * @file
 * Bit-reproducibility of the discrete-event hot path.
 *
 * The queue rewrite (inline callbacks, slot tombstones, compaction) must
 * not change *what* the simulator executes, only how fast. Two referees:
 *
 *  1. A model-based diff: a deliberately naive reference queue (ordered
 *     set over (time, seq)) replays the same push/cancel/pop workload as
 *     EventQueue (-0.0 ties, depths across 4-ary level boundaries, a
 *     compaction, then random churn); the popped (time, seq) traces must
 *     match element for element. The reference implements the documented
 *     semantics — min (time, seq), FIFO ties, cancel removes — with none
 *     of the production data structures, so any divergence is a real
 *     semantic change, not a shared bug. A second workload mixes in
 *     constant-delay lanes, which the reference sees as plain pushes.
 *
 *  2. A full fig2_phases-style run (M/G/1, autocorrelated response-time
 *     metric, convergence-terminated) executed twice under the same
 *     seed, with the engine trace hook recording every dispatched
 *     (time, seq) pair: the traces and the final estimates must be
 *     bit-identical.
 */

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <optional>
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

    bool
    contains(Time time, std::uint64_t seq) const
    {
        return entries.count({time, seq}) > 0;
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

/** EventQueue and ReferenceQueue driven in lockstep, pops recorded. */
class Lockstep
{
  public:
    /** Push a plain event; returns its id. */
    EventId
    push(Time at)
    {
        const EventId id = queue.push(at, [] {});
        record(id, at);
        return id;
    }

    /** Open a queue lane; its pushes must come in time order. */
    std::uint32_t
    addLane()
    {
        const std::uint32_t lane = queue.addLane();
        lanePending.resize(lane + 1);
        return lane;
    }

    /** Push onto `lane`; the reference sees a plain push. */
    EventId
    pushLane(std::uint32_t lane, Time at)
    {
        const EventId id = queue.pushLane(lane, at, [] {});
        record(id, at);
        lanePending[lane].push_back(pending.back());
        return id;
    }

    /** Cancel pending[pick] (it may have fired already) and forget it. */
    EventId
    cancel(std::size_t pick)
    {
        const Pending victim = pending[pick];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
        EXPECT_EQ(queue.cancel(victim.id),
                  reference.cancel(victim.time, victim.seq));
        EXPECT_EQ(queue.size(), reference.size());
        return victim.id;
    }

    /**
     * Cancel the `rank`-th still-pending entry of `lane` in (time, seq)
     * order; rank 0 is the lane's front, which sits in the heap. Returns
     * its id, or nothing when the lane holds fewer entries.
     */
    std::optional<EventId>
    cancelLaneEntry(std::uint32_t lane, std::size_t rank)
    {
        std::deque<Pending>& fifo = prunedLane(lane);
        for (auto it = fifo.begin(); it != fifo.end(); ++it) {
            if (!reference.contains(it->time, it->seq) || rank-- > 0)
                continue;
            const Pending victim = *it;
            fifo.erase(it);
            EXPECT_TRUE(queue.cancel(victim.id));
            EXPECT_TRUE(reference.cancel(victim.time, victim.seq));
            EXPECT_EQ(queue.size(), reference.size());
            return victim.id;
        }
        return std::nullopt;
    }

    /**
     * The heap holds the plain events, one entry per non-empty lane and
     * the tombstones, and nothing else: a lane's entries behind its
     * front stay out of it.
     */
    void
    expectHeapHoldsPlainEventsAndLaneFronts()
    {
        std::size_t laneLive = 0;
        std::size_t fronts = 0;
        for (std::uint32_t lane = 0; lane < lanePending.size(); ++lane) {
            std::size_t live = 0;
            for (const Pending& p : prunedLane(lane))
                live += reference.contains(p.time, p.seq) ? 1 : 0;
            laneLive += live;
            fronts += live > 0 ? 1 : 0;
        }
        EXPECT_EQ(queue.heapSize(), queue.deadEntries()
                                        + (reference.size() - laneLive)
                                        + fronts);
    }

    /** Pop from both; returns the popped time. */
    Time
    pop()
    {
        const auto popped = queue.pop();
        queueTrace.emplace_back(popped.time, popped.seq);
        referenceTrace.push_back(reference.pop());
        EXPECT_EQ(queue.size(), reference.size());
        return popped.time;
    }

    void
    drain()
    {
        while (!queue.empty())
            pop();
        EXPECT_TRUE(reference.empty());
    }

    void
    expectSameTraces() const
    {
        ASSERT_EQ(queueTrace.size(), referenceTrace.size());
        for (std::size_t i = 0; i < queueTrace.size(); ++i) {
            ASSERT_EQ(queueTrace[i], referenceTrace[i])
                << "traces diverge at pop " << i;
        }
    }

    EventQueue queue;
    std::size_t pendingCount() const { return pending.size(); }

  private:
    struct Pending
    {
        EventId id;
        Time time;
        std::uint64_t seq;
    };

    void
    record(EventId id, Time at)
    {
        const std::uint64_t seq = reference.push(at);
        EXPECT_EQ(id.seq, seq);
        pending.push_back({id, at, seq});
        EXPECT_EQ(queue.size(), reference.size());
    }

    /** The lane's pending list with fired or cancelled fronts dropped. */
    std::deque<Pending>&
    prunedLane(std::uint32_t lane)
    {
        std::deque<Pending>& fifo = lanePending[lane];
        while (!fifo.empty()
               && !reference.contains(fifo.front().time, fifo.front().seq))
            fifo.pop_front();
        return fifo;
    }

    ReferenceQueue reference;
    std::vector<Pending> pending;
    /// Per lane, its entries in push order (fired ones dropped lazily).
    std::vector<std::deque<Pending>> lanePending;
    std::vector<TimeSeq> queueTrace;
    std::vector<TimeSeq> referenceTrace;
};

TEST(TraceReproducibility, QueueMatchesReferenceUnderRandomWorkload)
{
    Lockstep run;
    Rng rng(2718);
    // Coarse times force frequent (time, seq) FIFO tie-breaks.
    const auto coarse = [&rng](Time from) {
        return from + static_cast<double>(rng.below(8));
    };

    // -0.0 ties +0.0 and precedes the smallest positive time; a heap
    // key that kept its sign bit would sort it after every positive time.
    for (int i = 0; i < 8; ++i) {
        run.push(i % 2 == 0 ? -0.0 : 0.0);
        run.push(std::numeric_limits<double>::denorm_min());
        run.push(1.0);
    }
    run.drain();
    Time clock = 1.0;

    // Depths on both sides of each 4-ary level boundary: 1, 5, 21, 85
    // and 341 live entries are exactly full levels.
    for (const std::size_t depth : {1u, 5u, 21u, 85u, 341u}) {
        while (run.queue.size() < depth + 1)
            run.push(coarse(clock));
        for (int round = 0; round < 16; ++round) {
            run.pop();
            clock = run.pop();
            run.push(coarse(clock));
            run.push(coarse(clock));
        }
    }

    // A cancel burst among the live entries buries enough tombstones to
    // trigger compact() mid-run; the survivors it moves must still pop
    // in order.
    const std::uint64_t sweeps = run.queue.compactions();
    const std::size_t burstStart = run.pendingCount();
    for (int i = 0; i < 600; ++i)
        run.push(coarse(clock));
    for (int i = 0; i < 500; ++i)
        run.cancel(burstStart + rng.below(run.pendingCount() - burstStart));
    EXPECT_GT(run.queue.compactions(), sweeps);

    // Random push/cancel/pop churn.
    for (int step = 0; step < 30000; ++step) {
        const double roll = rng.uniform01();
        if (roll < 0.55 || run.queue.empty())
            run.push(coarse(clock));
        else if (roll < 0.8 && run.pendingCount() > 0)
            run.cancel(rng.below(run.pendingCount()));
        else
            clock = run.pop();
    }
    run.drain();
    run.expectSameTraces();
}

TEST(TraceReproducibility, LanesMatchReferenceUnderRandomWorkload)
{
    Lockstep run;
    Rng rng(31415);
    // Whole-second delays, so lane times tie with each other and with
    // the coarse plain times; delay 0 ties with the clock itself.
    const std::vector<Time> delays = {0.0, 2.0, 5.0, 3.0};
    std::vector<std::uint32_t> lanes;
    for (std::size_t i = 0; i < delays.size(); ++i)
        lanes.push_back(run.addLane());
    EXPECT_EQ(run.queue.laneCount(), delays.size());
    Time clock = 1.0;
    const auto coarse = [&rng, &clock] {
        return clock + static_cast<double>(rng.below(8));
    };
    const auto pushLane = [&](std::size_t l) {
        return run.pushLane(lanes[l], clock + delays[l]);
    };

    std::size_t headCancels = 0;
    std::size_t reusedCancels = 0;
    for (int step = 0; step < 30000; ++step) {
        const double roll = rng.uniform01();
        const std::size_t l = rng.below(delays.size());
        if (roll < 0.25 || run.queue.empty()) {
            run.push(coarse());
        } else if (roll < 0.55) {
            pushLane(l);
        } else if (roll < 0.6) {
            // The lane's front: in the heap, maybe at its top.
            headCancels += run.cancelLaneEntry(lanes[l], 0) ? 1 : 0;
        } else if (roll < 0.65) {
            // An entry behind the front. The next push takes its slot,
            // so when the dead entry reaches the front it must be told
            // apart from the slot's new tenant by its seq.
            if (const auto victim =
                    run.cancelLaneEntry(lanes[l], 1 + rng.below(3))) {
                const EventId reuse = rng.below(2) == 0
                                          ? run.push(coarse())
                                          : pushLane(rng.below(delays.size()));
                EXPECT_EQ(reuse.slot, victim->slot);
                ++reusedCancels;
            }
        } else if (roll < 0.72 && run.pendingCount() > 0) {
            run.cancel(rng.below(run.pendingCount()));
        } else {
            clock = run.pop();
        }
        if (step % 1000 == 0)
            run.expectHeapHoldsPlainEventsAndLaneFronts();
    }
    EXPECT_GT(headCancels, 500u);
    EXPECT_GT(reusedCancels, 500u);
    run.expectHeapHoldsPlainEventsAndLaneFronts();
    run.drain();
    run.expectSameTraces();
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
