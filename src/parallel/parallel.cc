#include "parallel/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "base/contracts.hh"
#include "base/logging.hh"
#include "base/random.hh"

namespace bighouse {

SqsResult
ParallelResult::toSqsResult() const
{
    SqsResult result;
    result.converged = converged;
    result.termination = termination;
    result.backend = backend;
    result.events = totalEvents;
    result.simulatedTime = simulatedTime;
    result.wallSeconds = wallSeconds;
    result.estimates = estimates;
    result.failures = failures;
    return result;
}

const char*
slaveStatusName(SlaveStatus status)
{
    switch (status) {
      case SlaveStatus::Running: return "running";
      case SlaveStatus::Ok: return "ok";
      case SlaveStatus::Failed: return "failed";
      case SlaveStatus::TimedOut: return "timed-out";
    }
    return "unknown";
}

ParallelRunner::ParallelRunner(ModelBuilder modelBuilder,
                               ParallelConfig config)
    : builder(std::move(modelBuilder)), cfg(config)
{
    if (!builder)
        fatal("ParallelRunner needs a model builder");
    if (cfg.slaves == 0)
        fatal("ParallelRunner needs at least one slave");
    if (cfg.slaveBatchEvents == 0)
        fatal("ParallelConfig slaveBatchEvents must be >= 1 (0 would "
              "publish no progress and never converge)");
    if (cfg.minHealthySlaves > cfg.slaves)
        fatal("ParallelConfig minHealthySlaves (", cfg.minHealthySlaves,
              ") exceeds the slave count (", cfg.slaves, ")");
    if (cfg.watchdogSeconds < 0.0)
        fatal("ParallelConfig watchdogSeconds must be >= 0");
    if (!cfg.checkpointPath.empty() && cfg.checkpointIntervalSeconds <= 0.0)
        fatal("ParallelConfig checkpointIntervalSeconds must be > 0");
    if (cfg.pool != nullptr && cfg.pool->workerCount() < cfg.slaves)
        fatal("ParallelConfig pool has ", cfg.pool->workerCount(),
              " workers for ", cfg.slaves,
              " slaves; queued slaves would look dead to the watchdog");
}

namespace {

/// Wall-clock spacing of ParallelConfig::progress publications.
constexpr double kProgressIntervalSeconds = 0.5;

/**
 * Advance a simulation until every metric finished calibration.
 * `tick`, when provided, runs after every batch with the events executed
 * so far; returning false abandons calibration early (supervised slaves
 * bail out when the run stops under them).
 */
std::uint64_t
runToMeasurement(SqsSimulation& sim, std::uint64_t batch,
                 const std::function<bool(std::uint64_t)>& tick)
{
    std::uint64_t events = 0;
    while (true) {
        bool allMeasuring = true;
        StatsCollection& stats = sim.stats();
        for (std::size_t i = 0; i < stats.metricCount(); ++i) {
            const Phase phase = stats.metric(i).phase();
            if (phase == Phase::Calibration || phase == Phase::Warmup) {
                allMeasuring = false;
                break;
            }
        }
        if (!stats.warmedUp())
            allMeasuring = false;
        if (allMeasuring)
            return events;
        const std::uint64_t ran = sim.runBatch(batch);
        if (ran == 0)
            fatal("model drained before completing calibration");
        events += ran;
        if (tick && !tick(events))
            return events;
    }
}

/**
 * Published per-slave progress snapshot. Readers skip unhealthy slaves:
 * a slave that failed or was abandoned cannot vouch for its snapshot.
 */
struct SlaveProgress
{
    /// Per metric, empty until the first measurement batch: the
    /// accumulator, plus the histogram while checkpointing (only a
    /// checkpoint reads it).
    std::vector<MetricSample> samples;
    std::uint64_t events = 0;  ///< calibration + measurement, published
    std::chrono::steady_clock::time_point lastBeat;
};

} // namespace

ParallelResult
ParallelRunner::run(std::uint64_t rootSeed)
{
    return execute(rootSeed, nullptr);
}

ParallelResult
ParallelRunner::resume(const ParallelCheckpoint& from)
{
    return execute(from.rootSeed, &from);
}

ParallelResult
ParallelRunner::execute(std::uint64_t rootSeed,
                        const ParallelCheckpoint* from)
{
    using clock = std::chrono::steady_clock;
    const auto wallStart = clock::now();
    auto secondsSince = [](clock::time_point since, clock::time_point now) {
        return std::chrono::duration<double>(now - since).count();
    };
    ParallelResult result;
    result.slaveReports.resize(cfg.slaves);

    // The master defines the metrics and is the merge target; it runs no
    // events. Its seed draw stays, so every slave keeps its seed stream.
    Rng seeder(rootSeed);
    SqsSimulation master(cfg.sqs, seeder.next());
    builder(master);
    result.backend = master.backend();
    if (cfg.instrument)
        cfg.instrument(master, 0, true);
    const std::size_t metricCount = master.stats().metricCount();
    BH_ASSERT(metricCount > 0, "parallel run with no metrics");
    // Failure totals: the sum over every slave that ran, guarded by mtx.
    FailureTotals aggregateFailures;
    const bool failuresPresent = static_cast<bool>(master.failureProbe());

    // --- Resume prior: the checkpoint's merged sample seeds both the
    // aggregate convergence check and the final merge.
    const std::uint64_t epoch = from != nullptr ? from->epoch + 1 : 0;
    std::vector<MetricSample> prior(metricCount);
    if (from != nullptr) {
        if (from->identity != cfg.checkpointIdentity) {
            fatal("checkpoint identity '", from->identity,
                  "' differs from this run's '", cfg.checkpointIdentity,
                  "' — resume needs the original model, config, and root "
                  "seed");
        }
        if (from->metricNames.size() != metricCount
            || from->samples.size() != metricCount) {
            fatal("checkpoint has ", from->samples.size(), " samples of ",
                  from->metricNames.size(),
                  " metrics but the model registers ", metricCount);
        }
        for (std::size_t i = 0; i < metricCount; ++i) {
            const std::string& name =
                master.stats().metric(i).specification().name;
            if (from->metricNames[i] != name) {
                fatal("checkpoint metric ", i, " is '",
                      from->metricNames[i], "' but the model registers '",
                      name, "' — resume needs the original model");
            }
        }
        prior = from->samples;
        result.resumedBaseEvents = from->events;
    }

    // --- Construct slaves with unique seeds. Resumed epochs mix a
    // per-epoch constant into every slave seed so post-resume measurement
    // is independent of the checkpointed sample (replaying the original
    // streams would double-count it).
    const std::uint64_t epochMix =
        epoch == 0 ? 0
                   : SplitMix64(epoch * 0x9e3779b97f4a7c15ULL).next();
    std::vector<std::unique_ptr<SqsSimulation>> slaves;
    slaves.reserve(cfg.slaves);
    for (std::size_t s = 0; s < cfg.slaves; ++s) {
        auto slave = std::make_unique<SqsSimulation>(
            cfg.sqs, seeder.next() ^ epochMix);
        builder(*slave);
        if (slave->stats().metricCount() != metricCount)
            fatal("model builder is not deterministic: slave registered ",
                  slave->stats().metricCount(), " metrics, master ",
                  metricCount);
        for (std::size_t i = 0; i < metricCount; ++i)
            slave->stats().metric(i).disableSelfConvergence();
        slaves.push_back(std::move(slave));
    }

    // --- Slaves calibrate and measure under supervision; the master
    // monitors aggregate size, heartbeats, safety valves, and quorum.
    std::atomic<bool> stop{false};
    auto abandonFlags =
        std::make_unique<std::atomic<bool>[]>(cfg.slaves);
    std::mutex mtx;
    std::condition_variable progressCv;
    bool reasonSet = false;  // guarded by mtx
    TerminationReason reason = TerminationReason::Converged;
    std::size_t activeSlaves = cfg.slaves;  // guarded by mtx
    std::vector<SlaveProgress> progress(cfg.slaves);
    for (auto& p : progress)
        p.samples.resize(metricCount);
    const bool checkpointing = !cfg.checkpointPath.empty();
    FaultInjector injector(cfg.faults, cfg.slaves);

    // All of the following helpers run under mtx.
    auto trip = [&](TerminationReason r) {
        if (!reasonSet) {
            reasonSet = true;
            reason = r;
            stop.store(true, std::memory_order_relaxed);
            progressCv.notify_all();
        }
    };
    auto healthy = [&](std::size_t s) {
        const SlaveStatus status = result.slaveReports[s].status;
        return status == SlaveStatus::Running || status == SlaveStatus::Ok;
    };
    auto healthyCount = [&]() {
        std::size_t count = 0;
        for (std::size_t s = 0; s < cfg.slaves; ++s)
            count += healthy(s) ? 1 : 0;
        return count;
    };
    auto publishedEvents = [&]() {
        std::uint64_t total = 0;
        for (const SlaveProgress& p : progress)
            total += p.events;
        return total;
    };

    // Aggregate-convergence predicate: each metric's own Eqs. 2-3 over
    // the merged sample of the resume prior and the *surviving* slaves.
    // Slaves run it right after publishing a snapshot so the cluster
    // stops within one batch of sufficiency; the monitor below is only
    // a liveness fallback.
    auto aggregateSatisfied = [&]() {
        for (std::size_t i = 0; i < metricCount; ++i) {
            Accumulator merged = prior[i].accumulator;
            for (std::size_t s = 0; s < cfg.slaves; ++s) {
                if (healthy(s))
                    merged.merge(progress[s].samples[i].accumulator);
            }
            if (merged.count() == 0
                || merged.count()
                       < master.stats().metric(i).requiredSamples(merged))
                return false;
        }
        return true;
    };

    // A checkpoint is the run's merged sample so far: `samples` per
    // metric, produced by `events` events over every epoch.
    auto checkpointOf = [&](std::vector<MetricSample> samples,
                            std::uint64_t events) {
        ParallelCheckpoint cp;
        cp.identity = cfg.checkpointIdentity;
        cp.rootSeed = rootSeed;
        cp.epoch = epoch;
        cp.events = events;
        for (std::size_t i = 0; i < metricCount; ++i) {
            cp.metricNames.push_back(
                master.stats().metric(i).specification().name);
        }
        cp.samples = std::move(samples);
        return cp;
    };
    // Runs under mtx: the prior merged with every healthy slave's last
    // published sample (empty until its first measurement batch).
    auto periodicCheckpoint = [&]() {
        std::vector<MetricSample> merged = prior;
        std::uint64_t events = result.resumedBaseEvents;
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            if (!healthy(s))
                continue;
            events += progress[s].events;
            for (std::size_t i = 0; i < metricCount; ++i)
                merged[i].merge(progress[s].samples[i]);
        }
        return checkpointOf(std::move(merged), events);
    };

    // Runs under mtx: live view of the slave phase for cfg.progress.
    auto buildProgress = [&](clock::time_point now) {
        ParallelProgressSnapshot snap;
        snap.phase = "measurement";
        snap.healthySlaves = healthyCount();
        snap.totalEvents = publishedEvents();
        snap.elapsedSeconds = secondsSince(wallStart, now);
        snap.slaves.resize(cfg.slaves);
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            snap.slaves[s].status = result.slaveReports[s].status;
            snap.slaves[s].abandoned = result.slaveReports[s].abandoned;
            snap.slaves[s].events = progress[s].events;
            snap.slaves[s].secondsSinceBeat =
                secondsSince(progress[s].lastBeat, now);
        }
        return snap;
    };

    auto slaveMain = [&](std::size_t index) {
        // Tag this thread's log lines so interleaved slave output is
        // attributable (satellite of the single-write logging fix).
        ScopedLogTag logTag("slave-" + std::to_string(index));
        SqsSimulation& sim = *slaves[index];
        if (cfg.instrument)
            cfg.instrument(sim, index, false);
        SlaveReport& report = result.slaveReports[index];
        std::uint64_t events = 0;
        auto cancelled = [&]() {
            return stop.load(std::memory_order_relaxed)
                   || abandonFlags[index].load(std::memory_order_relaxed);
        };
        try {
            // Calibration heart-beats so the watchdog sees liveness and
            // the maxEvents valve sees calibration work too.
            events = runToMeasurement(
                sim, cfg.slaveBatchEvents, [&](std::uint64_t soFar) {
                    std::lock_guard<std::mutex> lock(mtx);
                    progress[index].events = soFar;
                    progress[index].lastBeat = clock::now();
                    return !cancelled();
                });
            {
                std::lock_guard<std::mutex> lock(mtx);
                report.calibrationEvents = events;
                progress[index].events = events;
                progress[index].lastBeat = clock::now();
            }
            progressCv.notify_all();
            while (!cancelled()) {
                injector.atBatchBoundary(index, events, cancelled);
                if (cancelled())
                    break;
                const std::uint64_t ran =
                    sim.runBatch(cfg.slaveBatchEvents);
                events += ran;
                {
                    std::lock_guard<std::mutex> lock(mtx);
                    for (std::size_t i = 0; i < metricCount; ++i) {
                        const MetricSample& sample =
                            sim.stats().metric(i).sample();
                        MetricSample& published = progress[index].samples[i];
                        published.accumulator = sample.accumulator;
                        // Assignment reuses the previous copy's storage.
                        if (checkpointing)
                            published.histogram = sample.histogram;
                    }
                    progress[index].events = events;
                    progress[index].lastBeat = clock::now();
                    if (ran != 0) {
                        if (aggregateSatisfied())
                            trip(TerminationReason::Converged);
                        else if (cfg.sqs.maxEvents != 0
                                 && publishedEvents() >= cfg.sqs.maxEvents)
                            trip(TerminationReason::MaxEvents);
                        else if (cfg.sqs.maxSimTime != 0
                                 && sim.engine().now()
                                        >= cfg.sqs.maxSimTime)
                            trip(TerminationReason::MaxSimTime);
                    }
                }
                progressCv.notify_all();
                if (ran == 0)
                    break;  // drained: nothing more to contribute
            }
        } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(mtx);
            report.status = SlaveStatus::Failed;
            report.error = e.what();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mtx);
            report.status = SlaveStatus::Failed;
            report.error = "unknown exception";
        }
        // The sim is quiescent here: fold its failure totals into the
        // run aggregate. Failed slaves contribute too — their estimates
        // are discarded, but their failure events did happen, and
        // ensemble conservation is checked against what actually ran.
        if (sim.failureProbe()) {
            const FailureTotals totals = sim.failureProbe()();
            std::lock_guard<std::mutex> lock(mtx);
            aggregateFailures.accumulate(totals);
        }
        // Telemetry hook before the active-count decrement: the waiter
        // may tear down this frame (cfg, slaves) the moment it observes
        // the zero count. The sim is quiescent here.
        if (cfg.onSlaveDone)
            cfg.onSlaveDone(sim, index);
        {
            std::lock_guard<std::mutex> lock(mtx);
            report.totalEvents = events;
            if (report.status == SlaveStatus::Running)
                report.status = SlaveStatus::Ok;
            // Decrement under mtx: the completion wait checks this count
            // under the same lock, so the paired notify can never slip
            // between its predicate check and its sleep.
            --activeSlaves;
            // Notify while STILL holding mtx. The waiter may destroy
            // progressCv (it lives in this frame) as soon as it observes
            // the zero count, and it can only observe it after this
            // unlock — so the unlock must be this thread's last touch of
            // the frame. A notify after the unlock would race with that
            // destruction.
            progressCv.notify_all();
        }
    };

    if (cfg.progress) {
        // Start-of-run snapshot: every slave built, none has run yet.
        ParallelProgressSnapshot snap;
        snap.phase = "calibration";
        snap.healthySlaves = cfg.slaves;
        snap.elapsedSeconds = secondsSince(wallStart, clock::now());
        snap.slaves.resize(cfg.slaves);
        cfg.progress(snap);
    }

    // Slaves run on the caller's shared pool (a campaign reuses one
    // across its points) or on a pool of the runner's own.
    std::optional<SlavePool> ownPool;
    SlavePool& pool =
        cfg.pool != nullptr ? *cfg.pool : ownPool.emplace(cfg.slaves);
    {
        // Heartbeats start at spawn time, not wallStart: building the
        // slaves already consumed wall clock, and charging it to them
        // would let the watchdog fire before they ever ran.
        std::lock_guard<std::mutex> lock(mtx);
        const auto spawnTime = clock::now();
        for (auto& p : progress)
            p.lastBeat = spawnTime;
    }
    for (std::size_t s = 0; s < cfg.slaves; ++s)
        pool.submit([&slaveMain, s] { slaveMain(s); });

    // Supervision monitor. Convergence is normally tripped by the slave
    // that publishes the sufficient sample (the condition variable only
    // has to relay it), so stop latency does not depend on this tick;
    // the tick bounds watchdog/deadline/checkpoint latency.
    {
        std::unique_lock<std::mutex> lock(mtx);
        auto lastCheckpoint = wallStart;
        auto lastProgress = wallStart;
        while (!reasonSet) {
            if (activeSlaves == 0)
                break;
            progressCv.wait_for(lock, std::chrono::milliseconds(10));
            if (reasonSet)
                break;
            const auto now = clock::now();
            if (aggregateSatisfied()) {  // liveness fallback
                trip(TerminationReason::Converged);
                break;
            }
            if (cfg.sqs.maxEvents != 0
                && publishedEvents() >= cfg.sqs.maxEvents) {
                trip(TerminationReason::MaxEvents);
                break;
            }
            if (cfg.sqs.maxWallSeconds > 0.0
                && secondsSince(wallStart, now) >= cfg.sqs.maxWallSeconds) {
                trip(TerminationReason::Deadline);
                break;
            }
            if (cfg.watchdogSeconds > 0.0) {
                for (std::size_t s = 0; s < cfg.slaves; ++s) {
                    SlaveReport& report = result.slaveReports[s];
                    if (report.abandoned || !healthy(s))
                        continue;
                    if (report.status == SlaveStatus::Ok)
                        continue;  // already finished
                    if (secondsSince(progress[s].lastBeat, now)
                        <= cfg.watchdogSeconds)
                        continue;
                    warn("slave ", s, " missed its ",
                         cfg.watchdogSeconds,
                         "s watchdog deadline; abandoning it");
                    report.status = SlaveStatus::TimedOut;
                    report.abandoned = true;
                    abandonFlags[s].store(true,
                                          std::memory_order_relaxed);
                }
            }
            if (healthyCount() < cfg.minHealthySlaves) {
                warn("quorum lost: ", healthyCount(), " healthy slaves < ",
                     cfg.minHealthySlaves, " required");
                trip(TerminationReason::Degraded);
                break;
            }
            if (checkpointing
                && secondsSince(lastCheckpoint, now)
                       >= cfg.checkpointIntervalSeconds) {
                const ParallelCheckpoint cp = periodicCheckpoint();
                // Serialize and write without the lock: slaves keep
                // publishing meanwhile.
                lock.unlock();
                writeCheckpoint(cfg.checkpointPath, cp);
                lock.lock();
                lastCheckpoint = now;
            }
            if (cfg.progress
                && secondsSince(lastProgress, now)
                       >= kProgressIntervalSeconds) {
                // Under mtx, like the checkpoint write above: the
                // callback is a quick status.json rewrite.
                cfg.progress(buildProgress(now));
                lastProgress = now;
            }
        }
    }
    {
        // A shared pool outlives this run: wait for *these* slaves only.
        // wait_for (not wait) mirrors the monitor loop's tolerance of a
        // notify landing between predicate check and sleep.
        std::unique_lock<std::mutex> lock(mtx);
        while (activeSlaves != 0)
            progressCv.wait_for(lock, std::chrono::milliseconds(10));
    }

    // Final reason when every slave exited on its own (drain/failure)
    // before anything tripped. No contention remains, but the helpers
    // expect the lock.
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (!reasonSet) {
            if (healthyCount() < cfg.minHealthySlaves)
                trip(TerminationReason::Degraded);
            else if (aggregateSatisfied())
                trip(TerminationReason::Converged);
            else
                trip(TerminationReason::Drained);
        }
    }

    // --- Quorum merge: the resume prior plus every healthy slave's
    // sample into the master's (so far empty) metrics. A slave cancelled
    // mid-calibration has no sample of that metric yet.
    auto absorbs = [&](std::size_t s, std::size_t i) {
        const Phase phase = slaves[s]->stats().metric(i).phase();
        return healthy(s) && phase != Phase::Warmup
               && phase != Phase::Calibration;
    };
    for (std::size_t i = 0; i < metricCount; ++i) {
        OutputMetric& masterMetric = master.stats().metric(i);
        // Weight conservation: every accepted observation of every merged
        // contributor must land in the master's sample, exactly once.
        std::uint64_t expected = masterMetric.acceptedCount();
        if (from != nullptr) {
            const std::uint64_t count = prior[i].accumulator.count();
            masterMetric.absorb(prior[i], count, 1);
            expected += count;
        }
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            if (!absorbs(s, i))
                continue;
            const OutputMetric& slaveMetric = slaves[s]->stats().metric(i);
            masterMetric.absorb(slaveMetric.sample(),
                                slaveMetric.offeredCount(),
                                slaveMetric.lag());
            expected += slaveMetric.acceptedCount();
        }
        BH_ENSURE(masterMetric.acceptedCount() == expected,
                  "quorum merge did not conserve sample weight for '",
                  masterMetric.specification().name, "': merged ",
                  masterMetric.acceptedCount(), " expected ", expected);
        BH_ENSURE(masterMetric.acceptedCount()
                      == masterMetric.sample().histogram.count(),
                  "accumulator and histogram disagree after quorum merge");
        masterMetric.evaluateConvergence();
    }

    result.converged = master.stats().allConverged();
    result.healthySlaves = healthyCount();
    if (result.healthySlaves < cfg.minHealthySlaves) {
        // Quorum is policy, not statistics: an estimate built from
        // fewer healthy slaves than required is never reported as
        // converged, however large its sample.
        result.converged = false;
        reason = TerminationReason::Degraded;
    } else if (result.converged) {
        reason = TerminationReason::Converged;
    } else if (reason == TerminationReason::Converged) {
        // The aggregate was sufficient when tripped but a contributor
        // was excluded before the merge; the surviving sample fell
        // short, which is exactly a degraded outcome.
        reason = TerminationReason::Degraded;
    }
    result.termination = reason;
    result.degraded = result.healthySlaves < cfg.slaves;

    result.estimates = master.stats().estimates();

    // Timelines of every healthy slave, and the summed clocks of those
    // the merge took a sample from. All slave threads have joined (or
    // drained from the pool), so the sims are quiescent; the lock only
    // satisfies the helpers' contract, like the block above.
    {
        std::lock_guard<std::mutex> lock(mtx);
        const bool withTimelines = master.timeline() != nullptr;
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            if (!healthy(s))
                continue;
            const SqsSimulation& sim = *slaves[s];
            const Time finalClock = sim.stepper() != nullptr
                                        ? sim.stepper()->now()
                                        : sim.engine().now();
            bool sampled = false;
            for (std::size_t i = 0; i < metricCount && !sampled; ++i)
                sampled = absorbs(s, i);
            if (sampled)
                result.simulatedTime += finalClock;
            if (withTimelines) {
                TimelineData data = sim.timeline()->harvest(finalClock);
                data.source = "slave-" + std::to_string(s);
                result.timelines.push_back(std::move(data));
            }
        }
    }

    result.slaveCalibrationEvents.resize(cfg.slaves);
    result.slaveTotalEvents.resize(cfg.slaves);
    if (failuresPresent)
        result.failures = aggregateFailures;
    for (std::size_t s = 0; s < cfg.slaves; ++s) {
        result.slaveCalibrationEvents[s] =
            result.slaveReports[s].calibrationEvents;
        result.slaveTotalEvents[s] = result.slaveReports[s].totalEvents;
        result.totalEvents += result.slaveReports[s].totalEvents;
    }

    // An unconverged run always leaves a final resumable snapshot, so
    // interruption by valve or quorum loss never discards the sample:
    // the master's metrics, which now hold the quorum merge.
    if (checkpointing && !result.converged) {
        std::vector<MetricSample> merged;
        for (std::size_t i = 0; i < metricCount; ++i)
            merged.push_back(master.stats().metric(i).sample());
        std::uint64_t events = result.resumedBaseEvents;
        for (std::size_t s = 0; s < cfg.slaves; ++s)
            events += healthy(s) ? result.slaveReports[s].totalEvents : 0;
        writeCheckpoint(cfg.checkpointPath,
                        checkpointOf(std::move(merged), events));
    }

    result.wallSeconds = std::chrono::duration<double>(
                             clock::now() - wallStart)
                             .count();

    if (cfg.progress) {
        // Terminal snapshot: final per-slave outcomes and the merge
        // verdict — the record a status.json consumer is left with.
        ParallelProgressSnapshot snap;
        snap.phase = "merged";
        snap.converged = result.converged;
        snap.healthySlaves = result.healthySlaves;
        snap.totalEvents = result.totalEvents;
        snap.elapsedSeconds = result.wallSeconds;
        snap.slaves.resize(cfg.slaves);
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            snap.slaves[s].status = result.slaveReports[s].status;
            snap.slaves[s].abandoned = result.slaveReports[s].abandoned;
            snap.slaves[s].events = result.slaveReports[s].totalEvents;
        }
        cfg.progress(snap);
    }
    return result;
}

} // namespace bighouse
