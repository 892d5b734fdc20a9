/**
 * @file
 * Unit tests for the DES engine: clock advance, stop semantics, horizons,
 * cancellation from inside callbacks, self-scheduling processes, and
 * constant-delay lanes.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "sim/engine.hh"

namespace bighouse {
namespace {

TEST(Engine, ClockAdvancesWithEvents)
{
    Engine sim;
    std::vector<Time> seen;
    sim.schedule(1.5, [&] { seen.push_back(sim.now()); });
    sim.schedule(0.5, [&] { seen.push_back(sim.now()); });
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(seen, (std::vector<Time>{0.5, 1.5}));
    EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Engine, SelfSchedulingProcess)
{
    Engine sim;
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        if (ticks < 10)
            sim.scheduleAfter(1.0, tick);
    };
    sim.schedule(0.0, tick);
    sim.run();
    EXPECT_EQ(ticks, 10);
    EXPECT_DOUBLE_EQ(sim.now(), 9.0);
    EXPECT_EQ(sim.eventsExecuted(), 10u);
}

TEST(Engine, StopInsideCallbackHaltsRun)
{
    Engine sim;
    int fired = 0;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(static_cast<Time>(i), [&] {
            if (++fired == 3)
                sim.stop();
        });
    }
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.pendingEvents(), 7u);
    // A subsequent run() resumes cleanly.
    EXPECT_EQ(sim.run(), 7u);
    EXPECT_EQ(fired, 10);
}

TEST(Engine, MaxEventsLimit)
{
    Engine sim;
    for (int i = 0; i < 100; ++i)
        sim.schedule(static_cast<Time>(i), [] {});
    EXPECT_EQ(sim.run(25), 25u);
    EXPECT_EQ(sim.pendingEvents(), 75u);
}

TEST(Engine, RunUntilHonorsHorizon)
{
    Engine sim;
    std::vector<Time> seen;
    for (int i = 1; i <= 10; ++i)
        sim.schedule(static_cast<Time>(i), [&] { seen.push_back(sim.now()); });
    EXPECT_EQ(sim.runUntil(5.5), 5u);
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_DOUBLE_EQ(sim.now(), 5.5);
    EXPECT_EQ(sim.runUntil(100.0), 5u);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle)
{
    Engine sim;
    EXPECT_EQ(sim.runUntil(42.0), 0u);
    EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Engine, CancelFromInsideCallback)
{
    Engine sim;
    int fired = 0;
    const EventId victim = sim.schedule(2.0, [&] { fired += 100; });
    sim.schedule(1.0, [&] {
        ++fired;
        EXPECT_TRUE(sim.cancel(victim));
    });
    sim.run();
    EXPECT_EQ(fired, 1);
}

TEST(Engine, EventsScheduledDuringRunExecute)
{
    Engine sim;
    std::vector<int> order;
    sim.schedule(1.0, [&] {
        order.push_back(1);
        sim.schedule(1.0, [&] { order.push_back(2); });  // same time, later
        sim.scheduleAfter(0.5, [&] { order.push_back(3); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/**
 * A timer-heavy process: every step arms a fixed-delay timer (0, 0.25 or
 * 0.5 s, all tying with the steps' own quarter-second grid), cancels a
 * random earlier one now and then, and schedules the next step. With
 * `useLanes` the timers go through lanes. Returns the dispatch trace.
 */
std::vector<std::pair<Time, std::uint64_t>>
timerTrace(bool useLanes)
{
    Engine sim;
    Rng rng(7);
    const std::vector<Time> delays = {0.5, 0.25, 0.0};
    std::vector<EventLane> lanes;
    if (useLanes) {
        for (const Time delay : delays)
            lanes.push_back(sim.addLane(delay));
    }
    std::vector<EventId> timers;
    std::vector<std::pair<Time, std::uint64_t>> trace;
    sim.setTraceHook(
        [](void* ctx, Time time, std::uint64_t seq) {
            static_cast<std::vector<std::pair<Time, std::uint64_t>>*>(ctx)
                ->emplace_back(time, seq);
        },
        &trace);
    std::function<void()> step = [&] {
        const std::size_t l = rng.below(delays.size());
        timers.push_back(useLanes ? sim.scheduleAfter(lanes[l], [] {})
                                  : sim.scheduleAfter(delays[l], [] {}));
        if (rng.below(4) == 0)
            sim.cancel(timers[rng.below(timers.size())]);
        if (timers.size() < 20000) {
            sim.scheduleAfter(0.25 * static_cast<double>(rng.below(3)),
                              [&step] { step(); });
        }
    };
    sim.schedule(0.0, [&step] { step(); });
    sim.run();
    return trace;
}

TEST(Engine, LaneEventsFireInScheduleAfterOrder)
{
    const auto plain = timerTrace(false);
    const auto laned = timerTrace(true);
    ASSERT_GT(plain.size(), 20000u);
    EXPECT_EQ(plain, laned);
    EXPECT_FALSE(EventLane{}.valid());
}

TEST(EngineDeathTest, NegativeLaneDelayPanics)
{
    Engine sim;
    EXPECT_DEATH(sim.addLane(-1.0), "lane delay");
}

TEST(EngineDeathTest, SchedulingIntoThePastPanics)
{
    Engine sim;
    sim.schedule(5.0, [] {});
    sim.run();
    EXPECT_DEATH(sim.schedule(1.0, [] {}), "past");
}

} // namespace
} // namespace bighouse
