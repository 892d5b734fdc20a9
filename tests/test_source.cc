/**
 * @file
 * Tests for the arrival generator: rate fidelity, load scaling,
 * stop/start, and task field population.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "distribution/basic.hh"
#include "queueing/source.hh"
#include "sim/engine.hh"

namespace bighouse {
namespace {

/** Collects accepted tasks without serving them. */
class CollectingAcceptor : public TaskAcceptor
{
  public:
    void accept(Task task) override { tasks.push_back(std::move(task)); }
    std::vector<Task> tasks;
};

TEST(Source, DeterministicArrivalSpacing)
{
    Engine sim;
    CollectingAcceptor sink;
    Source source(sim, sink, std::make_unique<Deterministic>(2.0),
                  std::make_unique<Deterministic>(0.5), Rng(1));
    source.start();
    sim.runUntil(11.0);
    ASSERT_EQ(sink.tasks.size(), 5u);  // t = 2,4,6,8,10
    for (std::size_t i = 0; i < sink.tasks.size(); ++i) {
        EXPECT_DOUBLE_EQ(sink.tasks[i].arrivalTime,
                         2.0 * static_cast<double>(i + 1));
        EXPECT_DOUBLE_EQ(sink.tasks[i].size, 0.5);
        EXPECT_DOUBLE_EQ(sink.tasks[i].remaining, 0.5);
    }
    EXPECT_EQ(source.generated(), 5u);
}

TEST(Source, PoissonRateIsRespected)
{
    Engine sim;
    CollectingAcceptor sink;
    Source source(sim, sink, std::make_unique<Exponential>(100.0),
                  std::make_unique<Exponential>(1.0), Rng(2));
    source.start();
    sim.runUntil(100.0);
    // ~100/s over 100s = 10000 +- a few sigma (sigma = 100).
    EXPECT_NEAR(static_cast<double>(sink.tasks.size()), 10000.0, 500.0);
}

TEST(Source, LoadFactorScalesRate)
{
    Engine simA, simB;
    CollectingAcceptor sinkA, sinkB;
    Source a(simA, sinkA, std::make_unique<Exponential>(10.0),
             std::make_unique<Deterministic>(0.1), Rng(3));
    Source b(simB, sinkB, std::make_unique<Exponential>(10.0),
             std::make_unique<Deterministic>(0.1), Rng(3));
    b.setLoadFactor(2.0);
    a.start();
    b.start();
    simA.runUntil(200.0);
    simB.runUntil(200.0);
    EXPECT_NEAR(static_cast<double>(sinkB.tasks.size())
                    / static_cast<double>(sinkA.tasks.size()),
                2.0, 0.1);
}

TEST(Source, StopCancelsFutureArrivals)
{
    Engine sim;
    CollectingAcceptor sink;
    Source source(sim, sink, std::make_unique<Deterministic>(1.0),
                  std::make_unique<Deterministic>(0.1), Rng(4));
    source.start();
    sim.schedule(3.5, [&] { source.stop(); });
    sim.run();
    EXPECT_EQ(sink.tasks.size(), 3u);  // t = 1, 2, 3
}

TEST(Source, TaskIdsAreUniqueAndTagged)
{
    Engine sim;
    CollectingAcceptor sink;
    Source a(sim, sink, std::make_unique<Deterministic>(1.0),
             std::make_unique<Deterministic>(0.1), Rng(5), 1);
    Source b(sim, sink, std::make_unique<Deterministic>(1.0),
             std::make_unique<Deterministic>(0.1), Rng(6), 2);
    a.start();
    b.start();
    sim.runUntil(50.0);
    std::set<std::uint64_t> ids;
    for (const Task& task : sink.tasks)
        ids.insert(task.id);
    EXPECT_EQ(ids.size(), sink.tasks.size());
}

TEST(Source, SameSeedIsDeterministic)
{
    auto run = [](std::uint64_t seed) {
        Engine sim;
        CollectingAcceptor sink;
        Source source(sim, sink, std::make_unique<Exponential>(5.0),
                      std::make_unique<Exponential>(2.0), Rng(seed));
        source.start();
        sim.runUntil(100.0);
        return sink.tasks;
    };
    const auto first = run(42);
    const auto second = run(42);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_DOUBLE_EQ(first[i].arrivalTime, second[i].arrivalTime);
        EXPECT_DOUBLE_EQ(first[i].size, second[i].size);
    }
}

TEST(SourceDeathTest, InvalidParameters)
{
    Engine sim;
    CollectingAcceptor sink;
    EXPECT_EXIT(Source(sim, sink, nullptr,
                       std::make_unique<Deterministic>(1.0), Rng(1)),
                ::testing::ExitedWithCode(1), "distribution");
    Source source(sim, sink, std::make_unique<Deterministic>(1.0),
                  std::make_unique<Deterministic>(1.0), Rng(1));
    EXPECT_EXIT(source.setLoadFactor(0.0), ::testing::ExitedWithCode(1),
                "load factor");
}

} // namespace
} // namespace bighouse
