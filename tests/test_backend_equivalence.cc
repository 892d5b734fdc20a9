/**
 * @file
 * Equivalence referees for the DES's pure performance machinery:
 *
 *  1. A randomized push/cancel/pop differential replay: the event queue
 *     and an ordered-set reference consume one recorded workload; popped
 *     (time, seq) traces must match element for element.
 *  2. A fig2-style convergence-terminated M/G/1 run with and without the
 *     task arena: dispatched (time, seq) traces, final estimates, and the
 *     response time histogram's serialized bytes must be bit-identical.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "core/sqs.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"
#include "sim/event_queue.hh"

namespace bighouse {
namespace {

using TimeSeq = std::pair<Time, std::uint64_t>;

/** One recorded queue operation (time used by Push only). */
struct QueueOp
{
    enum Kind
    {
        Push,
        Cancel,  ///< cancels the op.index-th pushed event
        Pop,
    };
    Kind kind;
    Time time = 0.0;
    std::size_t index = 0;
};

/** Replay a recorded workload; returns the popped (time, seq) trace. */
std::vector<TimeSeq>
replay(const std::vector<QueueOp>& ops)
{
    EventQueue q;
    std::vector<EventId> pushed;
    std::vector<TimeSeq> trace;
    for (const QueueOp& op : ops) {
        switch (op.kind) {
          case QueueOp::Push:
            pushed.push_back(q.push(op.time, [] {}));
            break;
          case QueueOp::Cancel:
            q.cancel(pushed[op.index]);
            break;
          case QueueOp::Pop: {
            const auto popped = q.pop();
            trace.emplace_back(popped.time, popped.seq);
            break;
          }
        }
    }
    while (!q.empty()) {
        const auto popped = q.pop();
        trace.emplace_back(popped.time, popped.seq);
    }
    return trace;
}

/**
 * The same replay against the reference semantics: an ordered set of
 * pending (time, seq) pairs, where seq is the push index.
 */
std::vector<TimeSeq>
replayReference(const std::vector<QueueOp>& ops)
{
    std::set<TimeSeq> pending;
    std::vector<TimeSeq> pushed;
    std::vector<TimeSeq> trace;
    const auto popFront = [&] {
        trace.push_back(*pending.begin());
        pending.erase(pending.begin());
    };
    for (const QueueOp& op : ops) {
        switch (op.kind) {
          case QueueOp::Push:
            pushed.emplace_back(op.time, pushed.size());
            pending.insert(pushed.back());
            break;
          case QueueOp::Cancel:
            pending.erase(pushed[op.index]);
            break;
          case QueueOp::Pop:
            popFront();
            break;
        }
    }
    while (!pending.empty())
        popFront();
    return trace;
}

TEST(BackendEquivalence, DifferentialReplayPopsIdentically)
{
    // Record one randomized workload against a scratch queue (so pops
    // only happen when events are pending), then replay the recording
    // against the queue and the reference. Coarse times force FIFO
    // tie-breaks; the cancel mix — including cancels of already-popped
    // ids, which must be no-ops — keeps the tombstone path hot.
    Rng rng(31415);
    std::vector<QueueOp> ops;
    EventQueue scratch;
    std::vector<EventId> pushed;
    double clock = 0.0;
    for (int step = 0; step < 40000; ++step) {
        const double roll = rng.uniform01();
        if (roll < 0.5 || scratch.empty()) {
            const Time at = clock + static_cast<double>(rng.below(16));
            ops.push_back({QueueOp::Push, at, 0});
            pushed.push_back(scratch.push(at, [] {}));
        } else if (roll < 0.75) {
            const std::size_t index = rng.below(pushed.size());
            ops.push_back({QueueOp::Cancel, 0.0, index});
            scratch.cancel(pushed[index]);
        } else {
            ops.push_back({QueueOp::Pop, 0.0, 0});
            clock = scratch.pop().time;
        }
    }

    const std::vector<TimeSeq> queueTrace = replay(ops);
    const std::vector<TimeSeq> referenceTrace = replayReference(ops);
    ASSERT_GT(queueTrace.size(), 1000u);
    ASSERT_EQ(queueTrace.size(), referenceTrace.size());
    for (std::size_t i = 0; i < queueTrace.size(); ++i) {
        ASSERT_EQ(queueTrace[i], referenceTrace[i])
            << "queue diverges from the reference at pop " << i;
    }
}

/**
 * One fig2-style M/G/1 run (autocorrelated response times, convergence
 * logic live, hard event cap so the trace is the product). Returns the
 * result; fills the dispatched (time, seq) trace and the response-time
 * histogram's serialized bytes — the strongest observable, every bin
 * count must match.
 */
SqsResult
runPhasesScenario(bool arena, std::vector<TimeSeq>& trace,
                  std::string& histogramBytes)
{
    SqsConfig config;
    config.warmupSamples = 500;
    config.calibrationSamples = 1000;
    config.accuracy = 0.10;
    config.maxEvents = 400000;
    SqsSimulation sim(config, 2024);
    const auto id = sim.addMetric("response_time");

    auto server = std::make_shared<Server>(
        sim.engine(), 1, arena ? sim.taskArena() : nullptr);
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
    SqsResult result = sim.run();
    histogramBytes = sim.stats()
                         .metricByName("response_time")
                         .sample()
                         .histogram.serialize();
    return result;
}

void
expectIdenticalRuns(const SqsResult& a, const std::vector<TimeSeq>& aTrace,
                    const std::string& aHist, const SqsResult& b,
                    const std::vector<TimeSeq>& bTrace,
                    const std::string& bHist)
{
    ASSERT_GT(aTrace.size(), 10000u);
    ASSERT_EQ(aTrace.size(), bTrace.size());
    for (std::size_t i = 0; i < aTrace.size(); ++i) {
        // Bitwise time equality on purpose: equivalence is exact.
        ASSERT_EQ(aTrace[i], bTrace[i]) << "traces diverge at event " << i;
    }
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.simulatedTime, b.simulatedTime);
    EXPECT_EQ(a.converged, b.converged);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
        EXPECT_EQ(a.estimates[i].accepted, b.estimates[i].accepted);
        EXPECT_EQ(a.estimates[i].mean, b.estimates[i].mean);
        EXPECT_EQ(a.estimates[i].stddev, b.estimates[i].stddev);
        EXPECT_EQ(a.estimates[i].meanHalfWidth,
                  b.estimates[i].meanHalfWidth);
    }
    EXPECT_EQ(aHist, bHist);  // histograms agree byte for byte
}

TEST(BackendEquivalence, PhasesRunIsBitIdenticalAcrossArenaModes)
{
    std::vector<TimeSeq> onTrace, offTrace;
    std::string onHist, offHist;
    const SqsResult on = runPhasesScenario(true, onTrace, onHist);
    const SqsResult off = runPhasesScenario(false, offTrace, offHist);
    expectIdenticalRuns(on, onTrace, onHist, off, offTrace, offHist);
}

} // namespace
} // namespace bighouse
