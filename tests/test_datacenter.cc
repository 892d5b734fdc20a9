/**
 * @file
 * Tests for the load balancer disciplines.
 */

#include <gtest/gtest.h>

#include "datacenter/load_balancer.hh"
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

TEST(LoadBalancer, ParseDispatchNames)
{
    EXPECT_EQ(parseDispatch("random"), Dispatch::Random);
    EXPECT_EQ(parseDispatch("RoundRobin"), Dispatch::RoundRobin);
    EXPECT_EQ(parseDispatch("rr"), Dispatch::RoundRobin);
    EXPECT_EQ(parseDispatch("JSQ"), Dispatch::JoinShortestQueue);
    EXPECT_EXIT(parseDispatch("bogus"), ::testing::ExitedWithCode(1),
                "unknown dispatch");
}

TEST(LoadBalancer, RoundRobinCycles)
{
    Engine sim;
    Server a(sim, 1), b(sim, 1), c(sim, 1);
    LoadBalancer lb({&a, &b, &c}, Dispatch::RoundRobin, Rng(1));
    for (std::uint64_t i = 0; i < 9; ++i)
        lb.accept(makeTask(i, 0.0, 1.0));
    EXPECT_EQ(lb.perServerCounts(),
              (std::vector<std::uint64_t>{3, 3, 3}));
    EXPECT_EQ(lb.routedCount(), 9u);
}

TEST(LoadBalancer, RandomIsRoughlyBalanced)
{
    Engine sim;
    Server a(sim, 1), b(sim, 1);
    LoadBalancer lb({&a, &b}, Dispatch::Random, Rng(2));
    for (std::uint64_t i = 0; i < 10000; ++i)
        lb.accept(makeTask(i, 0.0, 0.0));
    sim.run();
    const auto& counts = lb.perServerCounts();
    EXPECT_NEAR(static_cast<double>(counts[0]), 5000.0, 300.0);
}

TEST(LoadBalancer, JsqPrefersShortestQueue)
{
    Engine sim;
    Server a(sim, 1), b(sim, 1);
    LoadBalancer lb({&a, &b}, Dispatch::JoinShortestQueue, Rng(3));
    // Preload server a with a long task plus queue.
    a.accept(makeTask(100, 0.0, 10.0));
    a.accept(makeTask(101, 0.0, 10.0));
    lb.accept(makeTask(1, 0.0, 1.0));  // b is empty -> goes to b
    EXPECT_EQ(b.outstanding(), 1u);
    lb.accept(makeTask(2, 0.0, 1.0));  // a has 2, b has 1 -> b again
    EXPECT_EQ(b.outstanding(), 2u);
    lb.accept(makeTask(3, 0.0, 1.0));  // tie at 2: first minimum wins (a)
    EXPECT_EQ(a.outstanding(), 3u);
}

} // namespace
} // namespace bighouse
