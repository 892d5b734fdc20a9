/**
 * @file
 * Cross-model invariant suite: every task-processing component must
 * conserve tasks (arrivals = completions + outstanding), emit sane
 * timestamps (arrival <= start <= finish), and never lose work — checked
 * under a common randomized arrival schedule with bursts, lulls, and
 * mid-run speed disturbances.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "datacenter/load_balancer.hh"
#include "distribution/basic.hh"
#include "distribution/compose.hh"
#include "distribution/fit.hh"
#include "policy/dreamweaver.hh"
#include "policy/powernap.hh"
#include "queueing/ps_server.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"
#include "sim/engine.hh"

namespace bighouse {
namespace {

struct Checked
{
    std::uint64_t completions = 0;
    bool timestampsSane = true;
    double totalSize = 0.0;
    double totalBusyTime = 0.0;

    Server::CompletionHandler
    handler()
    {
        return [this](const Task& task) {
            ++completions;
            if (!(task.arrivalTime <= task.startTime
                  && task.startTime <= task.finishTime)) {
                timestampsSane = false;
            }
            if (task.responseTime() < 0 || task.waitingTime() < 0)
                timestampsSane = false;
            totalSize += task.size;
            totalBusyTime += task.finishTime - task.startTime;
        };
    }
};

/** Bursty, lull-y arrival schedule with a mid-run speed disturbance. */
template <typename AcceptorT, typename SpeedFn>
std::uint64_t
exercise(Engine& sim, AcceptorT& acceptor, SpeedFn&& disturb,
         std::uint64_t seed)
{
    auto bursty = std::make_unique<Mixture>([] {
        std::vector<Mixture::Component> parts;
        parts.push_back({0.8, std::make_unique<Exponential>(400.0)});
        parts.push_back({0.2, std::make_unique<Exponential>(2.0)});
        return parts;
    }());
    Source source(sim, acceptor, std::move(bursty), fitMeanCv(0.01, 2.0),
                  Rng(seed));
    source.start();
    sim.schedule(20.0, [&] { disturb(0.3); });
    sim.schedule(40.0, [&] { disturb(1.0); });
    sim.schedule(60.0, [&] { source.stop(); });
    sim.run();  // drain completely
    return source.generated();
}

TEST(Invariants, FcfsServerConservesTasks)
{
    Engine sim;
    Server server(sim, 4);
    Checked checked;
    server.setCompletionHandler(checked.handler());
    const std::uint64_t generated = exercise(
        sim, server, [&](double s) { server.setSpeed(s); }, 1);
    EXPECT_EQ(checked.completions, generated);
    EXPECT_EQ(server.outstanding(), 0u);
    EXPECT_TRUE(checked.timestampsSane);
    // With slowdown phases, busy time must be at least the raw demand.
    EXPECT_GE(checked.totalBusyTime, checked.totalSize - 1e-6);
}

TEST(Invariants, LoadBalancerConservesTasks)
{
    // Every generated task completes through the balancer, and the
    // per-server completions add up to the total.
    Engine sim;
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<Server*> pointers;
    for (int i = 0; i < 4; ++i) {
        servers.push_back(std::make_unique<Server>(sim, 1));
        pointers.push_back(servers.back().get());
    }
    LoadBalancer balancer(pointers, Dispatch::JoinShortestQueue, Rng(11));
    Checked checked;
    for (Server* server : pointers)
        server->setCompletionHandler(checked.handler());
    const std::uint64_t generated = exercise(
        sim, balancer,
        [&](double s) {
            for (Server* server : pointers)
                server->setSpeed(s);
        },
        12);
    EXPECT_EQ(checked.completions, generated);
    EXPECT_EQ(balancer.routedCount(), generated);
    std::uint64_t completed = 0;
    for (Server* server : pointers) {
        completed += server->completedCount();
        EXPECT_EQ(server->outstanding(), 0u);
    }
    EXPECT_EQ(completed, generated);
    EXPECT_TRUE(checked.timestampsSane);
    EXPECT_GE(checked.totalBusyTime, checked.totalSize - 1e-6);
}

TEST(Invariants, PsServerConservesTasks)
{
    Engine sim;
    PsServer server(sim, 4);
    Checked checked;
    server.setCompletionHandler(checked.handler());
    const std::uint64_t generated = exercise(
        sim, server, [&](double s) { server.setSpeed(s); }, 2);
    EXPECT_EQ(checked.completions, generated);
    EXPECT_EQ(server.resident(), 0u);
    EXPECT_TRUE(checked.timestampsSane);
}

TEST(Invariants, DreamWeaverConservesTasks)
{
    Engine sim;
    DreamWeaverSpec spec;
    spec.delayBudget = 25.0 * kMilliSecond;
    spec.sleep.wakeLatency = 1.0 * kMilliSecond;
    DreamWeaverServer server(sim, 4, spec);
    Checked checked;
    server.setCompletionHandler(checked.handler());
    // DreamWeaver owns its speed; the disturbance is a no-op.
    const std::uint64_t generated =
        exercise(sim, server, [](double) {}, 3);
    EXPECT_EQ(checked.completions, generated);
    EXPECT_EQ(server.server().outstanding(), 0u);
    EXPECT_TRUE(checked.timestampsSane);
}

TEST(Invariants, PowerNapConservesTasks)
{
    Engine sim;
    PowerNapServer server(sim, 4, SleepSpec{0.5 * kMilliSecond});
    Checked checked;
    server.setCompletionHandler(checked.handler());
    const std::uint64_t generated =
        exercise(sim, server, [](double) {}, 4);
    EXPECT_EQ(checked.completions, generated);
    EXPECT_EQ(server.server().outstanding(), 0u);
    EXPECT_TRUE(checked.timestampsSane);
}

TEST(Invariants, SimulatedClockNeverRegresses)
{
    Engine sim;
    Server server(sim, 2);
    Time last = 0.0;
    bool monotone = true;
    server.setCompletionHandler([&](const Task& task) {
        if (task.finishTime < last)
            monotone = false;
        last = task.finishTime;
    });
    exercise(sim, server, [&](double s) { server.setSpeed(s); }, 10);
    EXPECT_TRUE(monotone);
}

} // namespace
} // namespace bighouse
