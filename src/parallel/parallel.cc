#include "parallel/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "base/contracts.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "stats/confidence.hh"

namespace bighouse {

double
ParallelResult::modeledSpeedup(std::uint64_t serialEvents) const
{
    std::uint64_t slowestSlave = 0;
    for (std::uint64_t events : slaveTotalEvents)
        slowestSlave = std::max(slowestSlave, events);
    const std::uint64_t parallelCritical =
        masterCalibrationEvents + slowestSlave;
    if (parallelCritical == 0)
        return 0.0;
    return static_cast<double>(serialEvents)
           / static_cast<double>(parallelCritical);
}

SqsResult
ParallelResult::toSqsResult() const
{
    SqsResult result;
    result.converged = converged;
    result.termination = termination;
    result.backend = backend;
    result.events = totalEvents;
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
      case SlaveStatus::Straggler: return "straggler";
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
    if (cfg.stragglerFactor != 0.0 && cfg.stragglerFactor <= 1.0)
        fatal("ParallelConfig stragglerFactor must be > 1 (or 0 to "
              "disable straggler detection)");
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

/** Published per-slave progress snapshot. */
struct SlaveProgress
{
    std::vector<Accumulator> perMetric;
    /// Serialized measurement histograms (only while checkpointing).
    std::vector<std::string> histograms;
    std::uint64_t events = 0;  ///< calibration + measurement, published
    std::chrono::steady_clock::time_point lastBeat;
    bool measured = false;  ///< published at least one measurement batch
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

    // --- Phase 1: master warm-up + calibration fixes the bin schemes.
    Rng seeder(rootSeed);
    SqsSimulation master(cfg.sqs, seeder.next());
    builder(master);
    result.backend = master.backend();
    if (cfg.instrument)
        cfg.instrument(master, 0, true);
    const std::size_t metricCount = master.stats().metricCount();
    BH_ASSERT(metricCount > 0, "parallel run with no metrics");
    result.masterCalibrationEvents =
        runToMeasurement(master, cfg.sqs.batchEvents, nullptr);
    // Failure-totals aggregation: the master's calibration segment plus
    // every slave's full run. Guarded by mtx on the slave side; the
    // master contribution happens before any slave exists.
    FailureTotals aggregateFailures;
    bool failuresPresent = false;
    if (master.failureProbe()) {
        aggregateFailures.accumulate(master.failureProbe()());
        failuresPresent = true;
    }
    if (cfg.progress) {
        // Calibration-phase snapshot: the slaves exist only on paper yet.
        ParallelProgressSnapshot snap;
        snap.phase = "calibration";
        snap.healthySlaves = cfg.slaves;
        snap.totalEvents = result.masterCalibrationEvents;
        snap.elapsedSeconds = secondsSince(wallStart, clock::now());
        snap.slaves.resize(cfg.slaves);
        cfg.progress(snap);
    }

    // The broadcast payload: one serialized scheme per metric (the same
    // bytes a networked deployment would ship to remote slaves).
    std::vector<std::string> broadcast;
    broadcast.reserve(metricCount);
    for (std::size_t i = 0; i < metricCount; ++i) {
        broadcast.push_back(
            master.stats().metric(i).histogram().scheme().serialize());
    }

    // --- Resume prior: revive the checkpointed sample as a merged base
    // that seeds both the aggregate convergence check and the final
    // merge.
    const std::uint64_t epoch = from != nullptr ? from->epoch + 1 : 0;
    std::vector<Accumulator> baseAcc(metricCount);
    std::vector<std::optional<Histogram>> baseHist(metricCount);
    if (from != nullptr) {
        if (from->metricNames.size() != metricCount) {
            fatal("checkpoint has ", from->metricNames.size(),
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
            if (from->binSchemes[i] != broadcast[i]) {
                fatal("checkpoint bin scheme for '", name,
                      "' differs from this run's calibration — resume "
                      "needs the original model, config, and root seed");
            }
        }
        auto addSample = [&](const CheckpointSample& sample,
                             std::size_t i) {
            if (sample.count == 0 && sample.histogram.empty())
                return;
            baseAcc[i].merge(Accumulator::restore(
                sample.count, sample.mean, sample.variance, sample.min,
                sample.max));
            if (!sample.histogram.empty()) {
                Histogram h = Histogram::deserialize(sample.histogram);
                if (!baseHist[i].has_value())
                    baseHist[i].emplace(std::move(h));
                else
                    baseHist[i]->merge(h);
            }
        };
        for (std::size_t i = 0; i < from->base.size(); ++i)
            addSample(from->base[i], i);
        result.resumedBaseEvents = from->baseEvents;
        for (const CheckpointSlave& slave : from->slaves) {
            result.resumedBaseEvents += slave.events;
            for (std::size_t i = 0; i < slave.samples.size(); ++i)
                addSample(slave.samples[i], i);
        }
    }

    // --- Phase 2: construct slaves with unique seeds + adopted schemes.
    // Resumed epochs mix a per-epoch constant into every slave seed so
    // post-resume measurement is independent of the checkpointed sample
    // (replaying the original streams would double-count it).
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
        for (std::size_t i = 0; i < metricCount; ++i) {
            slave->stats().metric(i).adoptBinScheme(
                BinScheme::deserialize(broadcast[i]));
            slave->stats().metric(i).disableSelfConvergence();
        }
        slaves.push_back(std::move(slave));
    }

    // --- Phase 3: slaves measure under supervision; the master monitors
    // aggregate size, heartbeats, stragglers, safety valves, and quorum.
    std::atomic<bool> stop{false};
    auto abandonFlags =
        std::make_unique<std::atomic<bool>[]>(cfg.slaves);
    std::mutex mtx;
    std::condition_variable progressCv;
    bool reasonSet = false;  // guarded by mtx
    TerminationReason reason = TerminationReason::Converged;
    std::vector<SlaveProgress> progress(cfg.slaves);
    for (auto& p : progress) {
        p.perMetric.resize(metricCount);
        p.histograms.resize(metricCount);
        p.lastBeat = wallStart;
    }
    const bool checkpointing = !cfg.checkpointPath.empty();
    // Faults draw from their own stream so injected runs keep the same
    // slave seeds as clean ones (reproducibility of the healthy part).
    FaultInjector injector(cfg.faults, cfg.slaves,
                           SplitMix64(rootSeed ^ 0xfa171f17ec7edULL)
                               .next());

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
        return status == SlaveStatus::Running || status == SlaveStatus::Ok
               || status == SlaveStatus::Straggler;
    };
    auto healthyCount = [&]() {
        std::size_t count = 0;
        for (std::size_t s = 0; s < cfg.slaves; ++s)
            count += healthy(s) ? 1 : 0;
        return count;
    };
    auto publishedEvents = [&]() {
        std::uint64_t total = result.masterCalibrationEvents;
        for (const SlaveProgress& p : progress)
            total += p.events;
        return total;
    };

    // Aggregate-convergence predicate (Eqs. 2-3 over the merged sample,
    // widened to the *surviving* slaves plus the checkpointed base).
    // Slaves run it right after publishing a snapshot so the cluster
    // stops within one batch of sufficiency; the monitor below is only
    // a liveness fallback.
    const double z = ConfidenceSpec{cfg.sqs.accuracy, cfg.sqs.confidence}
                         .critical();
    auto aggregateSatisfied = [&]() {
        for (std::size_t i = 0; i < metricCount; ++i) {
            Accumulator merged = baseAcc[i];
            for (std::size_t s = 0; s < cfg.slaves; ++s) {
                if (healthy(s))
                    merged.merge(progress[s].perMetric[i]);
            }
            if (merged.count() == 0)
                return false;
            const MetricSpec& spec =
                master.stats().metric(i).specification();
            std::uint64_t required = requiredSamplesMean(
                z, merged.mean(), merged.stddev(), spec.target.accuracy);
            for (double q : spec.quantiles) {
                required = std::max(
                    required,
                    requiredSamplesQuantile(z, q, spec.target.accuracy));
            }
            if (merged.count() < required)
                return false;
        }
        return true;
    };

    auto buildCheckpoint = [&]() {
        ParallelCheckpoint cp;
        cp.rootSeed = rootSeed;
        cp.epoch = epoch;
        cp.baseEvents =
            result.resumedBaseEvents + result.masterCalibrationEvents;
        for (std::size_t i = 0; i < metricCount; ++i) {
            cp.metricNames.push_back(
                master.stats().metric(i).specification().name);
        }
        cp.binSchemes = broadcast;
        if (from != nullptr) {
            for (std::size_t i = 0; i < metricCount; ++i) {
                CheckpointSample sample;
                sample.count = baseAcc[i].count();
                sample.mean = baseAcc[i].mean();
                sample.variance = baseAcc[i].variance();
                sample.min = baseAcc[i].min();
                sample.max = baseAcc[i].max();
                if (baseHist[i].has_value())
                    sample.histogram = baseHist[i]->serialize();
                cp.base.push_back(std::move(sample));
            }
        }
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            if (!healthy(s) || !progress[s].measured)
                continue;
            CheckpointSlave slave;
            slave.events = progress[s].events;
            bool complete = true;
            for (std::size_t i = 0; i < metricCount; ++i) {
                if (progress[s].histograms[i].empty()) {
                    complete = false;
                    break;
                }
                CheckpointSample sample;
                const Accumulator& acc = progress[s].perMetric[i];
                sample.count = acc.count();
                sample.mean = acc.mean();
                sample.variance = acc.variance();
                sample.min = acc.min();
                sample.max = acc.max();
                sample.histogram = progress[s].histograms[i];
                slave.samples.push_back(std::move(sample));
            }
            if (complete)
                cp.slaves.push_back(std::move(slave));
        }
        return cp;
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

    std::atomic<std::size_t> activeSlaves{cfg.slaves};
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
                // Serialize outside the lock: only this thread writes
                // this sim, and the monitor never touches sims.
                std::vector<std::string> histSnapshots;
                if (checkpointing) {
                    histSnapshots.reserve(metricCount);
                    for (std::size_t i = 0; i < metricCount; ++i) {
                        histSnapshots.push_back(
                            sim.stats().metric(i).histogram().serialize());
                    }
                }
                {
                    std::lock_guard<std::mutex> lock(mtx);
                    for (std::size_t i = 0; i < metricCount; ++i) {
                        progress[index].perMetric[i] =
                            sim.stats().metric(i).sampleAccumulator();
                    }
                    if (checkpointing)
                        progress[index].histograms =
                            std::move(histSnapshots);
                    progress[index].events = events;
                    progress[index].lastBeat = clock::now();
                    progress[index].measured = true;
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
            // Discard the victim's published sample: a slave that blew
            // up mid-measurement cannot vouch for its snapshot.
            for (Accumulator& acc : progress[index].perMetric)
                acc.reset();
            progress[index].histograms.assign(metricCount, std::string());
            progress[index].measured = false;
        } catch (...) {
            std::lock_guard<std::mutex> lock(mtx);
            report.status = SlaveStatus::Failed;
            report.error = "unknown exception";
            for (Accumulator& acc : progress[index].perMetric)
                acc.reset();
            progress[index].histograms.assign(metricCount, std::string());
            progress[index].measured = false;
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
        // Telemetry hook before the active-count decrement: in pool mode
        // the waiter may tear down this frame (cfg, slaves) the moment it
        // observes the zero count. The sim is quiescent here.
        if (cfg.onSlaveDone)
            cfg.onSlaveDone(sim, index);
        {
            std::lock_guard<std::mutex> lock(mtx);
            report.totalEvents = events;
            if (report.status == SlaveStatus::Running)
                report.status = SlaveStatus::Ok;
            // Decrement under mtx: the pool-mode completion wait checks
            // this count under the same lock, so the paired notify can
            // never slip between its predicate check and its sleep.
            activeSlaves.fetch_sub(1, std::memory_order_relaxed);
            // Notify while STILL holding mtx. In pool mode the waiter
            // may destroy progressCv (it lives in this frame) as soon
            // as it observes the zero count, and it can only observe it
            // after this unlock — so the unlock must be this thread's
            // last touch of the frame. A notify after the unlock would
            // race with that destruction.
            progressCv.notify_all();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(cfg.slaves);
    {
        // Heartbeats start at spawn time, not wallStart: the master's
        // calibration already consumed wall clock, and charging it to
        // the slaves would let the watchdog fire before they ever ran.
        std::lock_guard<std::mutex> lock(mtx);
        const auto spawnTime = clock::now();
        for (auto& p : progress)
            p.lastBeat = spawnTime;
    }
    for (std::size_t s = 0; s < cfg.slaves; ++s) {
        if (cfg.pool != nullptr)
            cfg.pool->submit([&slaveMain, s] { slaveMain(s); });
        else
            threads.emplace_back(slaveMain, s);
    }

    // Supervision monitor. Convergence is normally tripped by the slave
    // that publishes the sufficient sample (the condition variable only
    // has to relay it), so stop latency does not depend on this tick;
    // the tick bounds watchdog/straggler/deadline/checkpoint latency.
    {
        std::unique_lock<std::mutex> lock(mtx);
        auto lastCheckpoint = wallStart;
        auto lastProgress = wallStart;
        while (!reasonSet) {
            if (activeSlaves.load(std::memory_order_relaxed) == 0)
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
                    for (Accumulator& acc : progress[s].perMetric)
                        acc.reset();
                    progress[s].histograms.assign(metricCount,
                                                  std::string());
                    progress[s].measured = false;
                }
            }
            if (cfg.stragglerFactor > 1.0) {
                // Compare measurement-phase event counts: calibration
                // cost is common-mode, so the measurement share is the
                // honest rate signal.
                std::vector<std::uint64_t> measured;
                for (std::size_t s = 0; s < cfg.slaves; ++s) {
                    if (healthy(s) && progress[s].measured) {
                        measured.push_back(
                            progress[s].events
                            - result.slaveReports[s].calibrationEvents);
                    }
                }
                if (measured.size() >= 3) {
                    std::nth_element(measured.begin(),
                                     measured.begin()
                                         + measured.size() / 2,
                                     measured.end());
                    const std::uint64_t median =
                        measured[measured.size() / 2];
                    // Grace: wait until the median slave has cleared a
                    // few batches, or every fresh slave looks slow.
                    if (median >= 4 * cfg.slaveBatchEvents) {
                        for (std::size_t s = 0; s < cfg.slaves; ++s) {
                            SlaveReport& report = result.slaveReports[s];
                            // Finished calibration but lagging the
                            // median — zero measurement batches counts
                            // (a slave wedged at measurement start is
                            // the canonical straggler).
                            if (report.status != SlaveStatus::Running
                                || report.calibrationEvents == 0)
                                continue;
                            const std::uint64_t mine =
                                progress[s].events
                                - report.calibrationEvents;
                            const double scaled =
                                static_cast<double>(mine)
                                * cfg.stragglerFactor;
                            if (scaled >= static_cast<double>(median))
                                continue;
                            warn("slave ", s, " is a straggler (",
                                 mine, " measurement events vs median ",
                                 median, ")",
                                 cfg.abandonStragglers
                                     ? "; abandoning it"
                                     : "");
                            report.status = SlaveStatus::Straggler;
                            if (cfg.abandonStragglers) {
                                report.abandoned = true;
                                abandonFlags[s].store(
                                    true, std::memory_order_relaxed);
                            }
                        }
                    }
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
                writeCheckpoint(cfg.checkpointPath, buildCheckpoint());
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
    if (cfg.pool != nullptr) {
        // Pool threads outlive this run; wait for *these* slaves only.
        // wait_for (not wait) mirrors the monitor loop's tolerance of a
        // notify landing between predicate check and sleep.
        std::unique_lock<std::mutex> lock(mtx);
        while (activeSlaves.load(std::memory_order_relaxed) != 0)
            progressCv.wait_for(lock, std::chrono::milliseconds(10));
    }
    for (auto& thread : threads)
        thread.join();

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

    // --- Phase 4: quorum merge — checkpointed base plus every healthy
    // slave's histograms into the master's estimate.
    for (std::size_t i = 0; i < metricCount; ++i) {
        OutputMetric& masterMetric = master.stats().metric(i);
        // Weight conservation: every accepted observation of every merged
        // contributor must land in the master's sample, exactly once.
        std::uint64_t expected = masterMetric.acceptedCount();
        if (baseHist[i].has_value()) {
            masterMetric.absorbSample(baseAcc[i], *baseHist[i]);
            expected += baseAcc[i].count();
        }
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            if (!healthy(s))
                continue;
            const OutputMetric& slaveMetric = slaves[s]->stats().metric(i);
            // A slave cancelled mid-calibration has no histogram yet.
            if (slaveMetric.phase() == Phase::Warmup
                || slaveMetric.phase() == Phase::Calibration)
                continue;
            masterMetric.absorb(slaveMetric);
            expected += slaveMetric.acceptedCount();
        }
        BH_ENSURE(masterMetric.acceptedCount() == expected,
                  "quorum merge did not conserve sample weight for '",
                  masterMetric.specification().name, "': merged ",
                  masterMetric.acceptedCount(), " expected ", expected);
        BH_ENSURE(masterMetric.acceptedCount()
                      == masterMetric.histogram().count(),
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

    // Timelines of every merged contributor. All slave threads have
    // joined (or drained from the pool), so the sims are quiescent; the
    // lock only satisfies the helpers' contract, like the block above.
    if (master.timeline() != nullptr) {
        std::lock_guard<std::mutex> lock(mtx);
        auto harvestTimeline = [](const SqsSimulation& sim,
                                  std::string label) {
            TimelineData data = sim.timeline()->harvest(
                sim.stepper() != nullptr ? sim.stepper()->now()
                                         : sim.engine().now());
            data.source = std::move(label);
            return data;
        };
        result.timelines.reserve(1 + cfg.slaves);
        result.timelines.push_back(harvestTimeline(master, "master"));
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            if (healthy(s)) {
                result.timelines.push_back(harvestTimeline(
                    *slaves[s], "slave-" + std::to_string(s)));
            }
        }
    }

    result.slaveCalibrationEvents.resize(cfg.slaves);
    result.slaveTotalEvents.resize(cfg.slaves);
    if (failuresPresent)
        result.failures = aggregateFailures;
    result.totalEvents = result.masterCalibrationEvents;
    for (std::size_t s = 0; s < cfg.slaves; ++s) {
        result.slaveCalibrationEvents[s] =
            result.slaveReports[s].calibrationEvents;
        result.slaveTotalEvents[s] = result.slaveReports[s].totalEvents;
        result.totalEvents += result.slaveReports[s].totalEvents;
    }

    // An unconverged run always leaves a final resumable snapshot, so
    // interruption by valve or quorum loss never discards the sample.
    if (checkpointing && !result.converged) {
        std::lock_guard<std::mutex> lock(mtx);
        ParallelCheckpoint cp = buildCheckpoint();
        // The published snapshots may lag the sims by part of a batch;
        // refresh them from the (now quiescent) slave simulations.
        cp.slaves.clear();
        for (std::size_t s = 0; s < cfg.slaves; ++s) {
            if (!healthy(s))
                continue;
            CheckpointSlave slave;
            slave.events = result.slaveReports[s].totalEvents;
            bool complete = true;
            for (std::size_t i = 0; i < metricCount; ++i) {
                const OutputMetric& metric = slaves[s]->stats().metric(i);
                if (metric.phase() == Phase::Warmup
                    || metric.phase() == Phase::Calibration) {
                    complete = false;
                    break;
                }
                CheckpointSample sample;
                const Accumulator& acc = metric.sampleAccumulator();
                sample.count = acc.count();
                sample.mean = acc.mean();
                sample.variance = acc.variance();
                sample.min = acc.min();
                sample.max = acc.max();
                sample.histogram = metric.histogram().serialize();
                slave.samples.push_back(std::move(sample));
            }
            if (complete)
                cp.slaves.push_back(std::move(slave));
        }
        writeCheckpoint(cfg.checkpointPath, cp);
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
