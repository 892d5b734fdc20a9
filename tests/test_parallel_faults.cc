/**
 * @file
 * Tests for the supervised parallel runtime: deterministic fault
 * injection, quorum merge under slave failure, the watchdog, slow slaves,
 * the safety valves (maxEvents / deadline), checkpoint/resume, and
 * rejection of degenerate supervision configs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "base/fault_injection.hh"
#include "core/experiment.hh"
#include "core/results_io.hh"
#include "parallel/parallel.hh"
#include "workload/library.hh"

namespace bighouse {
namespace {

/** A Google-leaf experiment at 50% load, reused across tests. */
ModelBuilder
googleBuilder(double accuracy)
{
    ExperimentSpec spec;
    spec.workload = scaledToLoad(makeWorkload("google"), 16, 0.5);
    spec.servers = 1;
    spec.coresPerServer = 16;
    spec.sqs.accuracy = accuracy;
    // These tests assert event-denominated expectations (batch sizes,
    // valve promptness, per-slave event shares), so pin the event engine
    // rather than letting `auto` pick the recurrence fast path.
    spec.simBackend = SimBackend::Des;
    auto experiment = std::make_shared<Experiment>(std::move(spec));
    return [experiment](SqsSimulation& sim) {
        experiment->buildInto(sim);
    };
}

SqsConfig
parallelSqs(double accuracy)
{
    SqsConfig cfg;
    cfg.accuracy = accuracy;
    cfg.warmupSamples = 1000;
    cfg.calibrationSamples = 5000;
    return cfg;
}

/**
 * Wall-clock scale for the timing-sensitive knobs (watchdog deadlines,
 * injected stalls). Instrumented builds run the simulation an order of
 * magnitude slower, which would turn healthy slaves into watchdog
 * victims; scripts/check_tsan.sh sets BH_TEST_TIME_SCALE=10 to stretch
 * the deadlines to match.
 */
double
timeScale()
{
    const char* env = std::getenv("BH_TEST_TIME_SCALE");
    const double scale = env != nullptr ? std::strtod(env, nullptr) : 0.0;
    return scale > 0.0 ? scale : 1.0;
}

FaultSpec
faultOn(std::size_t slave, FaultKind kind, std::uint64_t afterEvents = 1,
        double stallSeconds = 0.0)
{
    FaultSpec spec;
    spec.slave = slave;
    spec.kind = kind;
    spec.afterEvents = afterEvents;
    spec.stallSeconds = stallSeconds;
    return spec;
}

TEST(FaultPlan, ExplicitEntriesBindOnlyTheirVictim)
{
    FaultPlan plan;
    plan.faults.push_back(faultOn(2, FaultKind::Slowdown, 5, 0.001));
    const auto schedule = plan.resolve(4);
    ASSERT_EQ(schedule.size(), 4u);
    EXPECT_EQ(schedule[2].kind, FaultKind::Slowdown);
    EXPECT_EQ(schedule[2].afterEvents, 5u);
    for (std::size_t s : {0u, 1u, 3u})
        EXPECT_EQ(schedule[s].kind, FaultKind::None);
    // Entries for out-of-range slaves are ignored, not fatal.
    FaultPlan wide;
    wide.faults.push_back(faultOn(9, FaultKind::Crash));
    const auto small = wide.resolve(2);
    EXPECT_EQ(small[0].kind, FaultKind::None);
    EXPECT_EQ(small[1].kind, FaultKind::None);
}

TEST(TerminationReason, NamesRoundTrip)
{
    for (TerminationReason reason :
         {TerminationReason::Converged, TerminationReason::MaxEvents,
          TerminationReason::MaxSimTime, TerminationReason::Deadline,
          TerminationReason::Degraded, TerminationReason::Drained}) {
        EXPECT_EQ(terminationReasonFromName(terminationReasonName(reason)),
                  reason);
    }
}

TEST(ParallelFaults, CrashedSlaveIsExcludedAndQuorumConverges)
{
    // Tight enough that convergence needs many batches from every
    // slave, so the victim reliably reaches its injection point (at a
    // loose target the other slaves can converge while it is still
    // calibrating, and the crash never fires).
    const double accuracy = 0.002;
    ParallelConfig clean;
    clean.slaves = 4;
    clean.sqs = parallelSqs(accuracy);
    const ParallelResult reference =
        ParallelRunner(googleBuilder(accuracy), clean).run(303);
    ASSERT_TRUE(reference.converged);

    ParallelConfig cfg = clean;
    cfg.faults.faults.push_back(faultOn(2, FaultKind::Crash));
    const ParallelResult result =
        ParallelRunner(googleBuilder(accuracy), cfg).run(303);

    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.termination, TerminationReason::Converged);
    ASSERT_EQ(result.slaveReports.size(), 4u);
    EXPECT_EQ(result.slaveReports[2].status, SlaveStatus::Failed);
    EXPECT_FALSE(result.slaveReports[2].error.empty());
    for (std::size_t s : {0u, 1u, 3u})
        EXPECT_EQ(result.slaveReports[s].status, SlaveStatus::Ok);
    EXPECT_EQ(result.healthySlaves, 3u);
    EXPECT_TRUE(result.degraded);

    // The degraded estimate is built from three healthy histograms and
    // must agree with the uninjected run well within the paper's 5%
    // accuracy target (the healthy slaves share seed streams with the
    // clean run, so agreement is much tighter than the CI).
    const MetricEstimate& est = result.estimates[0];
    const MetricEstimate& ref = reference.estimates[0];
    EXPECT_NEAR(est.mean / ref.mean, 1.0, 0.02);
    EXPECT_NEAR(est.quantiles[0].value / ref.quantiles[0].value, 1.0,
                0.03);
}

TEST(ParallelFaults, AllSlavesCrashingLosesQuorum)
{
    ParallelConfig cfg;
    cfg.slaves = 4;
    cfg.sqs = parallelSqs(0.05);
    cfg.minHealthySlaves = 2;
    for (std::size_t s = 0; s < 4; ++s)
        cfg.faults.faults.push_back(faultOn(s, FaultKind::Crash));
    const ParallelResult result =
        ParallelRunner(googleBuilder(0.05), cfg).run(17);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.termination, TerminationReason::Degraded);
    EXPECT_LT(result.healthySlaves, cfg.minHealthySlaves);
    EXPECT_TRUE(result.degraded);
    // At least 3 of 4 must have crashed for quorum (2) to be lost; the
    // last one may have been cancelled by the stop before its own
    // injection fired.
    std::size_t failed = 0;
    for (const SlaveReport& report : result.slaveReports) {
        if (report.status == SlaveStatus::Failed) {
            ++failed;
            EXPECT_FALSE(report.error.empty());
        }
    }
    EXPECT_GE(failed, 3u);
}

TEST(ParallelFaults, HungSlaveIsTimedOutAndAbandoned)
{
    // The run is engineered to end *through* the watchdog, not race it:
    // the accuracy target is unreachable (see DeadlineValve), the quorum
    // requires all four slaves, and the deadline backstop only catches a
    // broken watchdog. Abandoning the hung slave is therefore the only
    // path to termination, no matter how loaded the host is — the old
    // 50 ms deadline misfired on healthy slaves under a parallel ctest.
    const double accuracy = 0.0002;
    ParallelConfig cfg;
    cfg.slaves = 4;
    cfg.sqs = parallelSqs(accuracy);
    cfg.sqs.maxWallSeconds = 20.0 * timeScale();  // watchdog-bug backstop
    cfg.slaveBatchEvents = 10000;  // frequent heartbeats from the healthy
    cfg.watchdogSeconds = 1.0 * timeScale();
    cfg.minHealthySlaves = 4;  // abandonment must trip quorum loss
    cfg.faults.faults.push_back(faultOn(1, FaultKind::Hang));
    const ParallelResult result =
        ParallelRunner(googleBuilder(accuracy), cfg).run(404);

    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.termination, TerminationReason::Degraded);
    EXPECT_EQ(result.slaveReports[1].status, SlaveStatus::TimedOut);
    EXPECT_TRUE(result.slaveReports[1].abandoned);
    EXPECT_EQ(result.healthySlaves, 3u);
    EXPECT_TRUE(result.degraded);
    // The healthy slaves ran for a full watchdog period before the trip,
    // so their partial sample survives the degraded merge.
    ASSERT_FALSE(result.estimates.empty());
    EXPECT_GT(result.estimates[0].accepted, 0u);
}

TEST(ParallelFaults, SlowSlaveSampleStillMerges)
{
    // A slave that runs slower than its peers is not a fault: whatever it
    // measured is statistically valid, so it stays in the quorum, its
    // sample merges, and the run is not degraded.
    const double accuracy = 0.002;
    ParallelConfig cfg;
    cfg.slaves = 4;
    cfg.sqs = parallelSqs(accuracy);
    cfg.slaveBatchEvents = 10000;
    // The stalls start only once the victim has run `stallAfter` events,
    // past its calibration (20,000 events at this seed), so it publishes
    // measurement batches at full speed before the first stall, however
    // long BH_TEST_TIME_SCALE makes the stall. From then on it stalls
    // before every batch, while each peer runs ~700,000 events to the
    // converged merge.
    const std::uint64_t stallAfter = 100000;
    cfg.faults.faults.push_back(faultOn(0, FaultKind::Slowdown, stallAfter,
                                        0.05 * timeScale()));
    const ParallelResult result =
        ParallelRunner(googleBuilder(accuracy), cfg).run(505);
    ASSERT_LT(result.slaveCalibrationEvents[0], stallAfter);

    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.termination, TerminationReason::Converged);
    for (const SlaveReport& report : result.slaveReports) {
        EXPECT_EQ(report.status, SlaveStatus::Ok);
        EXPECT_FALSE(report.abandoned);
    }
    EXPECT_EQ(result.healthySlaves, 4u);
    EXPECT_FALSE(result.degraded);
    // The slow slave ran fewer events than the fastest one, and its
    // measured sample is in the merged estimate: the merged count equals
    // the sum over all four slaves.
    const std::uint64_t fastest = *std::max_element(
        result.slaveTotalEvents.begin(), result.slaveTotalEvents.end());
    EXPECT_LT(result.slaveTotalEvents[0], fastest);
    EXPECT_GT(result.slaveTotalEvents[0],
              result.slaveCalibrationEvents[0]);
}

TEST(ParallelFaults, MaxEventsValveTripsPromptly)
{
    ParallelConfig cfg;
    cfg.slaves = 2;
    cfg.sqs = parallelSqs(0.005);  // unreachable target
    cfg.sqs.maxEvents = 400000;
    cfg.slaveBatchEvents = 10000;
    const ParallelResult result =
        ParallelRunner(googleBuilder(0.005), cfg).run(21);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.termination, TerminationReason::MaxEvents);
    // It must stop within batch granularity of the budget, not run on.
    EXPECT_GE(result.totalEvents, cfg.sqs.maxEvents);
    EXPECT_LE(result.totalEvents, 2 * cfg.sqs.maxEvents);
    // The partial estimate is still merged and usable.
    ASSERT_FALSE(result.estimates.empty());
    EXPECT_GT(result.estimates[0].accepted, 0u);
    EXPECT_GT(result.estimates[0].mean, 0.0);
}

TEST(ParallelFaults, DeadlineValveTripsPromptly)
{
    ParallelConfig cfg;
    cfg.slaves = 2;
    // The accuracy target must stay unreachable even when
    // BH_TEST_TIME_SCALE stretches the deadline 10x but the build's
    // instrumentation slowdown is small (UBSan is ~1.2x): 0.0002 needs
    // ~100M lag-spaced observations per metric, far beyond any budget.
    cfg.sqs = parallelSqs(0.0002);
    cfg.sqs.maxWallSeconds = 0.15 * timeScale();
    const ParallelResult result =
        ParallelRunner(googleBuilder(0.0002), cfg).run(23);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.termination, TerminationReason::Deadline);
    EXPECT_LT(result.wallSeconds, 5.0 * timeScale());
    ASSERT_FALSE(result.estimates.empty());
}

TEST(ParallelFaults, CheckpointResumeConvergesWithFewerEvents)
{
    // Tight accuracy makes measurement (not calibration) dominate the
    // event budget, so a 60% budget interrupts mid-measurement and the
    // inherited sample is worth more than the re-paid calibration.
    const double accuracy = 0.002;
    ParallelConfig cfg;
    cfg.slaves = 4;
    cfg.sqs = parallelSqs(accuracy);
    cfg.slaveBatchEvents = 10000;

    // Cold reference run.
    const ParallelResult cold =
        ParallelRunner(googleBuilder(accuracy), cfg).run(606);
    ASSERT_TRUE(cold.converged);

    // Interrupted run: the maxEvents valve kills it at ~60% of the
    // cold event budget; the final checkpoint preserves the sample.
    const std::string path =
        ::testing::TempDir() + "/bh_parallel_ckpt.json";
    ParallelConfig interrupted = cfg;
    interrupted.checkpointPath = path;
    interrupted.checkpointIntervalSeconds = 0.05;
    interrupted.sqs.maxEvents = (cold.totalEvents * 3) / 5;
    const ParallelResult partial =
        ParallelRunner(googleBuilder(accuracy), interrupted).run(606);
    EXPECT_FALSE(partial.converged);
    EXPECT_EQ(partial.termination, TerminationReason::MaxEvents);

    const ParallelCheckpoint checkpoint = readCheckpoint(path);
    EXPECT_EQ(checkpoint.rootSeed, 606u);
    EXPECT_EQ(checkpoint.epoch, 0u);
    ASSERT_FALSE(checkpoint.samples.empty());
    EXPECT_GT(checkpoint.samples[0].accumulator.count(), 0u);

    // Resume inherits the checkpointed sample, so it must converge on
    // strictly fewer post-resume events than the cold run needed.
    const ParallelResult resumed =
        ParallelRunner(googleBuilder(accuracy), cfg).resume(checkpoint);
    std::remove(path.c_str());
    ASSERT_TRUE(resumed.converged);
    EXPECT_EQ(resumed.termination, TerminationReason::Converged);
    EXPECT_GT(resumed.resumedBaseEvents, 0u);
    EXPECT_LT(resumed.totalEvents, cold.totalEvents);

    // And the resumed estimate still agrees with the cold one.
    EXPECT_NEAR(resumed.estimates[0].mean / cold.estimates[0].mean, 1.0,
                0.05);
}

TEST(ParallelFaults, ValveCheckpointIsTheMergedSampleAndResumesOnFewerSlaves)
{
    // A checkpoint is the merged sample: the final one of a valve-stopped
    // run holds exactly what the merged estimate holds, and the events
    // behind it. The slave count is not part of it, so a resume on half
    // the slaves picks the sample up and converges.
    const double accuracy = 0.005;
    ParallelConfig cfg;
    cfg.slaves = 4;
    cfg.sqs = parallelSqs(accuracy);
    cfg.slaveBatchEvents = 10000;
    cfg.checkpointPath = ::testing::TempDir() + "/bh_parallel_merged.json";
    cfg.checkpointIntervalSeconds = 0.05;
    cfg.sqs.maxEvents = 400000;
    const ParallelResult stopped =
        ParallelRunner(googleBuilder(accuracy), cfg).run(707);
    ASSERT_FALSE(stopped.converged);
    EXPECT_EQ(stopped.termination, TerminationReason::MaxEvents);

    const ParallelCheckpoint checkpoint = readCheckpoint(cfg.checkpointPath);
    std::remove(cfg.checkpointPath.c_str());
    ASSERT_EQ(checkpoint.samples.size(), stopped.estimates.size());
    for (std::size_t i = 0; i < checkpoint.samples.size(); ++i) {
        const MetricEstimate& est = stopped.estimates[i];
        EXPECT_EQ(checkpoint.metricNames[i], est.name);
        EXPECT_GT(est.accepted, 0u) << est.name;
        EXPECT_EQ(checkpoint.samples[i].accumulator.count(), est.accepted)
            << est.name;
        EXPECT_EQ(checkpoint.samples[i].histogram.count(), est.accepted)
            << est.name;
    }
    EXPECT_EQ(checkpoint.events, stopped.totalEvents);

    ParallelConfig fewer = cfg;
    fewer.slaves = 2;
    fewer.checkpointPath.clear();
    fewer.sqs.maxEvents = 0;
    const ParallelResult resumed =
        ParallelRunner(googleBuilder(accuracy), fewer).resume(checkpoint);
    ASSERT_TRUE(resumed.converged);
    EXPECT_EQ(resumed.termination, TerminationReason::Converged);
    EXPECT_EQ(resumed.slaveReports.size(), 2u);
    EXPECT_EQ(resumed.resumedBaseEvents, checkpoint.events);
    EXPECT_GT(resumed.estimates[0].accepted,
              checkpoint.samples[0].accumulator.count());
}

TEST(ParallelFaultsDeathTest, DegenerateSupervisionConfigs)
{
    ParallelConfig zeroBatch;
    zeroBatch.slaves = 2;
    zeroBatch.slaveBatchEvents = 0;
    EXPECT_EXIT(ParallelRunner(googleBuilder(0.1), zeroBatch),
                ::testing::ExitedWithCode(1), "slaveBatchEvents");

    ParallelConfig badQuorum;
    badQuorum.slaves = 2;
    badQuorum.minHealthySlaves = 3;
    EXPECT_EXIT(ParallelRunner(googleBuilder(0.1), badQuorum),
                ::testing::ExitedWithCode(1), "minHealthySlaves");
}

} // namespace
} // namespace bighouse
