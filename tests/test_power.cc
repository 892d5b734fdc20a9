/**
 * @file
 * Tests for the power model (Eqs. 4-6) and the sleep-state controller.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "power/power_model.hh"
#include "power/sleep_state.hh"
#include "queueing/server.hh"
#include "sim/engine.hh"

namespace bighouse {
namespace {

constexpr ServerPowerSpec kSpec{150.0, 150.0, 5.0};

TEST(DvfsModel, EquationFourLinearPower)
{
    const DvfsModel model(kSpec);
    EXPECT_DOUBLE_EQ(model.uncappedPower(0.0), 150.0);
    EXPECT_DOUBLE_EQ(model.uncappedPower(1.0), 300.0);
    EXPECT_DOUBLE_EQ(model.uncappedPower(0.5), 225.0);
    EXPECT_DOUBLE_EQ(kSpec.peakWatts(), 300.0);
    EXPECT_EXIT(model.uncappedPower(1.5), ::testing::ExitedWithCode(1),
                "utilization");
}

TEST(DvfsModel, EquationSixSpeed)
{
    const DvfsModel model(kSpec, 0.9, 0.5);
    EXPECT_DOUBLE_EQ(model.speedAt(1.0), 1.0);
    EXPECT_NEAR(model.speedAt(0.5), 0.9 * 0.5 + 0.1, 1e-12);
    // alpha = 0: frequency-insensitive workload.
    const DvfsModel memBound(kSpec, 0.0, 0.5);
    EXPECT_DOUBLE_EQ(memBound.speedAt(0.5), 1.0);
}

TEST(DvfsModel, EquationFiveCubicPower)
{
    const DvfsModel model(kSpec, 0.9, 0.5);
    EXPECT_DOUBLE_EQ(model.power(1.0, 1.0), 300.0);
    EXPECT_DOUBLE_EQ(model.power(1.0, 0.5), 150.0 + 150.0 * 0.125);
    EXPECT_DOUBLE_EQ(model.power(0.0, 0.5), 150.0);
    EXPECT_DOUBLE_EQ(model.uncappedPower(0.6), 150.0 + 150.0 * 0.6);
}

TEST(DvfsModel, FrequencyForBudgetInvertsPower)
{
    const DvfsModel model(kSpec, 0.9, 0.5);
    // Pick a budget strictly inside the range at U = 0.8.
    const double f = 0.8;
    const double budget = model.power(0.8, f);
    EXPECT_NEAR(model.frequencyForBudget(budget, 0.8), f, 1e-12);
}

TEST(DvfsModel, FrequencyForBudgetClamps)
{
    const DvfsModel model(kSpec, 0.9, 0.5);
    // Generous budget -> full speed.
    EXPECT_DOUBLE_EQ(model.frequencyForBudget(1000.0, 0.9), 1.0);
    // Budget below the idle floor -> pinned at fMin.
    EXPECT_DOUBLE_EQ(model.frequencyForBudget(100.0, 0.9), 0.5);
    // Idle server: any budget is fine, capping moot.
    EXPECT_DOUBLE_EQ(model.frequencyForBudget(10.0, 0.0), 1.0);
}

TEST(DvfsModel, InvalidParameters)
{
    EXPECT_EXIT(DvfsModel(kSpec, 1.5, 0.5), ::testing::ExitedWithCode(1),
                "alpha");
    EXPECT_EXIT(DvfsModel(kSpec, 0.9, 0.0), ::testing::ExitedWithCode(1),
                "fMin");
    const DvfsModel model(kSpec, 0.9, 0.5);
    EXPECT_EXIT(model.speedAt(0.3), ::testing::ExitedWithCode(1),
                "outside");
}

TEST(SleepController, SleepPausesAndWakeResumes)
{
    Engine sim;
    Server server(sim, 1);
    SleepController ctl(sim, server, SleepSpec{0.5});
    std::vector<Task> done;
    server.setCompletionHandler([&](const Task& t) { done.push_back(t); });

    // Task of 2s starts at t=0; sleep at t=1 (half done); wake requested
    // at t=4; resumes at t=4.5; finishes at 5.5.
    sim.schedule(0.0, [&] {
        Task task;
        task.id = 1;
        task.arrivalTime = 0.0;
        task.size = 2.0;
        task.remaining = 2.0;
        server.accept(std::move(task));
    });
    sim.schedule(1.0, [&] { ctl.requestSleep(); });
    sim.schedule(4.0, [&] { ctl.requestWake(); });
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_DOUBLE_EQ(done[0].finishTime, 5.5);
    EXPECT_DOUBLE_EQ(ctl.sleepSeconds(), 3.0);  // [1, 4]
    EXPECT_EQ(ctl.napCount(), 1u);
    EXPECT_EQ(ctl.state(), SleepController::State::Active);
}

TEST(SleepController, AwakeHandlerFires)
{
    Engine sim;
    Server server(sim, 1);
    SleepController ctl(sim, server, SleepSpec{0.25});
    Time awakeAt = kTimeNever;
    ctl.setAwakeHandler([&] { awakeAt = sim.now(); });
    sim.schedule(1.0, [&] { ctl.requestSleep(); });
    sim.schedule(2.0, [&] { ctl.requestWake(); });
    sim.run();
    EXPECT_DOUBLE_EQ(awakeAt, 2.25);
}

TEST(SleepController, RedundantWakeIgnoredWhileWaking)
{
    Engine sim;
    Server server(sim, 1);
    SleepController ctl(sim, server, SleepSpec{1.0});
    sim.schedule(0.0, [&] { ctl.requestSleep(); });
    sim.schedule(0.5, [&] { ctl.requestWake(); });
    sim.schedule(0.6, [&] { ctl.requestWake(); });  // ignored
    sim.run();
    EXPECT_EQ(ctl.state(), SleepController::State::Active);
    EXPECT_EQ(ctl.napCount(), 1u);
}

TEST(SleepController, SleepSecondsAccumulatesAcrossNaps)
{
    Engine sim;
    Server server(sim, 1);
    SleepController ctl(sim, server, SleepSpec{0.0});
    sim.schedule(0.0, [&] { ctl.requestSleep(); });
    sim.schedule(1.0, [&] { ctl.requestWake(); });
    sim.schedule(2.0, [&] { ctl.requestSleep(); });
    sim.schedule(4.0, [&] { ctl.requestWake(); });
    sim.run();
    EXPECT_DOUBLE_EQ(ctl.sleepSeconds(), 3.0);
    EXPECT_EQ(ctl.napCount(), 2u);
}

TEST(SleepControllerDeathTest, StateErrors)
{
    Engine sim;
    Server server(sim, 1);
    SleepController ctl(sim, server, SleepSpec{0.1});
    EXPECT_EXIT(ctl.requestWake(), ::testing::ExitedWithCode(1),
                "already-active");
    ctl.requestSleep();
    EXPECT_DEATH(ctl.requestSleep(), "not Active");
}

} // namespace
} // namespace bighouse
