/**
 * @file
 * bighouse_run — the command-line front end: load a JSON experiment
 * description, run it to statistical convergence (serially or with the
 * Fig. 3 master/slave parallel protocol), and print the estimates.
 *
 * Usage:
 *   bighouse_run <config.json> [--seed N] [--slaves K]
 *                [--replications R] [--report DIR] [--progress] [--csv]
 *                [--min-healthy Q] [--watchdog SECONDS]
 *                [--checkpoint file.json] [--resume file.json]
 *                [--dry-run] [--lax] [--version]
 *
 * --dry-run parses and validates the config, prints what would run, and
 * exits without simulating or creating anything. Config keys outside the
 * known schema are a hard error unless --lax is given.
 *
 * With --slaves K the measurement phase is split across K in-process
 * slave simulations with unique seeds and merged histograms (Fig. 3).
 * With --replications R the whole experiment runs R times and the
 * between-replication Student-t intervals are reported instead.
 *
 * Parallel runs are supervised (see docs/robustness.md): --min-healthy
 * sets the merge quorum, --watchdog abandons slaves that stop publishing
 * progress, --checkpoint writes periodic resumable snapshots, and
 * --resume continues an interrupted run from such a snapshot, under the
 * checkpoint's root seed.
 *
 * Observability (docs/observability.md): --report DIR writes one report
 * directory, every file atomically — result.json (the estimates),
 * status.json (`bighouse-status-v1`, rewritten live, terminal last),
 * convergence.json (serial runs: the per-metric convergence series),
 * telemetry.json (the counter registry), trace.json (Chrome trace-event
 * JSON, one track per simulation), and timeline.jsonl when the config
 * has a `timeline` block. --progress prints a live one-line progress
 * indicator to stderr. Both attach through pull-based hooks, so the
 * simulated event stream — and therefore every estimate — is
 * bit-identical with or without them.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "base/build_info.hh"
#include "base/logging.hh"
#include "config/config.hh"
#include "core/experiment.hh"
#include "core/replications.hh"
#include "core/report.hh"
#include "core/results_io.hh"
#include "obs/convergence.hh"
#include "obs/status.hh"
#include "obs/telemetry.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "parallel/parallel.hh"

using namespace bighouse;

namespace {

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <config.json> [--seed N] [--slaves K] "
                 "[--replications R] [--report DIR] [--progress] [--csv] "
                 "[--min-healthy Q] [--watchdog SECONDS] "
                 "[--checkpoint file.json] [--resume file.json] "
                 "[--dry-run] [--lax] [--version]\n",
                 argv0);
    std::exit(2);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Erase-and-rewrite a TTY progress line on stderr. */
void
printProgressLine(const std::string& line)
{
    std::fprintf(stderr, "\r\033[K%s", line.c_str());
    std::fflush(stderr);
}

void
printEstimates(const std::vector<MetricEstimate>& estimates, bool csv)
{
    TextTable table({"metric", "mean", "ci-halfwidth", "p-quantile",
                     "quantile value", "quantile CI", "samples", "lag"});
    // Name-sorted, so reports diff cleanly regardless of metric
    // registration order.
    for (const MetricEstimate& est : sortedEstimates(estimates)) {
        if (est.quantiles.empty()) {
            table.addRow({est.name, formatG(est.mean, 6),
                          formatG(est.meanHalfWidth, 4), "-", "-", "-",
                          std::to_string(est.accepted),
                          std::to_string(est.lag)});
            continue;
        }
        for (const QuantileEstimate& qe : est.quantiles) {
            std::string ci = "[";
            ci += formatG(qe.lower, 5);
            ci += ", ";
            ci += formatG(qe.upper, 5);
            ci += "]";
            table.addRow({est.name, formatG(est.mean, 6),
                          formatG(est.meanHalfWidth, 4),
                          formatG(qe.q, 4), formatG(qe.value, 6),
                          std::move(ci), std::to_string(est.accepted),
                          std::to_string(est.lag)});
        }
    }
    std::printf("%s", csv ? table.toCsv().c_str()
                          : table.toText().c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    const char* configPath = nullptr;
    const char* checkpointPath = nullptr;
    const char* resumePath = nullptr;
    const char* reportDir = nullptr;
    bool progress = false;
    std::uint64_t seed = 1;
    bool seedGiven = false;
    std::size_t slaves = 0;
    std::size_t minHealthy = 1;
    double watchdogSeconds = 0.0;
    std::size_t replications = 0;
    bool csv = false;
    bool dryRun = false;
    bool strict = true;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--version") == 0) {
            std::printf("%s\n", buildInfoLine("bighouse_run").c_str());
            return 0;
        }
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
            seedGiven = true;
        } else if (std::strcmp(argv[i], "--slaves") == 0 && i + 1 < argc) {
            slaves = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--min-healthy") == 0
                   && i + 1 < argc) {
            minHealthy = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--watchdog") == 0
                   && i + 1 < argc) {
            watchdogSeconds = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--checkpoint") == 0
                   && i + 1 < argc) {
            checkpointPath = argv[++i];
        } else if (std::strcmp(argv[i], "--resume") == 0
                   && i + 1 < argc) {
            resumePath = argv[++i];
        } else if (std::strcmp(argv[i], "--replications") == 0
                   && i + 1 < argc) {
            replications = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
            reportDir = argv[++i];
        } else if (std::strcmp(argv[i], "--progress") == 0) {
            progress = true;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            csv = true;
        } else if (std::strcmp(argv[i], "--dry-run") == 0) {
            dryRun = true;
        } else if (std::strcmp(argv[i], "--lax") == 0) {
            strict = false;
        } else if (argv[i][0] == '-') {
            usage(argv[0]);
        } else if (configPath == nullptr) {
            configPath = argv[i];
        } else {
            usage(argv[0]);
        }
    }
    if (configPath == nullptr)
        usage(argv[0]);
    if (slaves > 0 && replications > 0)
        fatal("--slaves and --replications are mutually exclusive");
    if (resumePath != nullptr && slaves == 0)
        fatal("--resume needs --slaves (it resumes a parallel run)");
    if ((checkpointPath != nullptr || minHealthy != 1
         || watchdogSeconds != 0.0)
        && slaves == 0)
        fatal("--checkpoint/--min-healthy/--watchdog apply to parallel "
              "runs; add --slaves K");
    if (replications > 0 && (reportDir != nullptr || progress))
        fatal(reportDir != nullptr ? "--report" : "--progress",
              " is not supported with --replications");

    const Config config = Config::fromFile(configPath);
    ExperimentSpec spec = Experiment::specFromConfig(config, strict);
    std::optional<ParallelCheckpoint> checkpoint;
    if (resumePath != nullptr) {
        checkpoint = readCheckpoint(resumePath);
        if (seedGiven && seed != checkpoint->rootSeed)
            fatal("--seed ", seed, " differs from the root seed ",
                  checkpoint->rootSeed,
                  " of the --resume checkpoint, which the run continues");
        seed = checkpoint->rootSeed;
    }

    if (dryRun) {
        const char* model = "fcfs";
        switch (spec.serverModel) {
          case ServerModel::Fcfs: model = "fcfs"; break;
          case ServerModel::ProcessorSharing: model = "ps"; break;
          case ServerModel::DreamWeaver: model = "dreamweaver"; break;
          case ServerModel::PowerNap: model = "powernap"; break;
        }
        std::string mode = "serial";
        if (slaves > 0)
            mode = "parallel, " + std::to_string(slaves) + " slaves";
        else if (replications > 0)
            mode = std::to_string(replications) + " replications";
        std::printf("dry run: %s\n", configPath);
        std::printf("  cluster: %zu x %u-core %s server(s), "
                    "loadFactor %.6g\n",
                    spec.servers, spec.coresPerServer, model,
                    spec.loadFactor);
        std::printf("  sqs: accuracy %.6g, confidence %.6g, seed %llu, "
                    "%s\n",
                    spec.sqs.accuracy, spec.sqs.confidence,
                    static_cast<unsigned long long>(seed), mode.c_str());
        std::printf("  capping: %s\n",
                    spec.capping.has_value() ? "enabled" : "none");
        if (reportDir != nullptr)
            std::printf("  report: would write %s/\n", reportDir);
        std::printf("validated; nothing simulated\n");
        return 0;
    }

    if (replications > 0) {
        const Experiment experiment(std::move(spec));
        const ReplicatedResult result =
            runReplicated(experiment, replications, seed);
        TextTable table({"metric", "mean", "t-halfwidth", "quantile",
                         "quantile t-halfwidth", "replications"});
        for (const ReplicatedMetric& metric : result.metrics) {
            table.addRow({metric.name, formatG(metric.mean, 6),
                          formatG(metric.halfWidth, 4),
                          formatG(metric.quantileMean, 6),
                          formatG(metric.quantileHalfWidth, 4),
                          std::to_string(metric.replications)});
        }
        std::printf("%s", csv ? table.toCsv().c_str()
                              : table.toText().c_str());
        return result.allConverged ? 0 : 1;
    }

    // Empty when there is no report; otherwise "DIR/", ready for a file
    // name.
    const std::string report =
        reportDir == nullptr
            ? std::string()
            : prepareReportDir(reportDir,
                               {"result.json", "status.json",
                                "convergence.json", "telemetry.json",
                                "trace.json", "timeline.jsonl"});
    TraceSet traces;
    TelemetryRegistry telemetry;

    if (slaves == 0) {
        const Experiment experiment(std::move(spec));
        ConvergenceRecorder recorder;
        TelemetrySlab& slab = telemetry.slab("serial");
        const auto wallStart = std::chrono::steady_clock::now();
        auto lastTick = wallStart;

        // One batch observer multiplexes every surface; estimates are
        // snapshotted once per tick, never inside event callbacks.
        const auto instrument = [&](SqsSimulation& sim) {
            if (report.empty() && !progress)
                return;
            if (!report.empty())
                traces.attach(sim.engine(), "serial");
            sim.setBatchObserver([&](const SqsSimulation& s,
                                     std::uint64_t events) {
                if (!report.empty()) {
                    recorder.observe(s.stats(), events);
                    // Absolute-value samples: re-running every batch
                    // just refreshes the same cells.
                    sampleEngineTelemetry(slab, s.engine());
                    sampleStatsTelemetry(slab, s.stats());
                    slab.add(TelemetryCounter::BatchesObserved);
                }
                // Status/TTY ticks are wall-clock throttled; the
                // simulated stream is untouched either way.
                const auto now = std::chrono::steady_clock::now();
                if (std::chrono::duration<double>(now - lastTick).count()
                        < 0.25
                    && events != 0)
                    return;
                lastTick = now;
                const auto estimates = s.stats().estimates();
                if (!report.empty())
                    writeJsonFile(report + "status.json",
                                  serialStatusJson(
                                      estimates, events,
                                      secondsSince(wallStart), false,
                                      false, nullptr));
                if (progress)
                    printProgressLine(
                        serialProgressLine(estimates, events));
            });
        };

        const SqsResult result = experiment.run(seed, instrument);
        if (progress)
            std::fprintf(stderr, "\r\033[K");
        if (!report.empty()) {
            writeResult(report + "result.json", result);
            recorder.write(report + "convergence.json");
            // Final counts come from the result. Under the recurrence
            // backend "events" are tasks; surface them under their own
            // name so dashboards can tell which execution path produced
            // the run.
            slab.set(TelemetryCounter::EventsExecuted, result.events);
            slab.set(TelemetryCounter::RecurrenceTasks,
                     result.backend == SimBackend::Recurrence
                         ? result.events
                         : 0);
            if (result.failures.has_value())
                sampleFailureTelemetry(slab, *result.failures);
            telemetry.write(report + "telemetry.json");
            traces.write(report + "trace.json");
            if (result.timeline.has_value())
                writeTimelineJsonl(report + "timeline.jsonl",
                                   {*result.timeline});
            // Terminal status last: a watcher that sees it can read
            // every other file.
            writeJsonFile(report + "status.json",
                          serialStatusJson(
                              result.estimates, result.events,
                              secondsSince(wallStart), true,
                              result.converged,
                              terminationReasonName(result.termination)));
        }
        if (!csv)
            std::printf("%s\n", summarizeRun(result).c_str());
        printEstimates(result.estimates, csv);
        return result.converged ? 0 : 1;
    }

    auto experiment = std::make_shared<Experiment>(std::move(spec));
    ParallelConfig parallel;
    parallel.slaves = slaves;
    parallel.sqs = experiment->specification().sqs;
    parallel.minHealthySlaves = minHealthy;
    parallel.watchdogSeconds = watchdogSeconds;
    if (checkpointPath != nullptr)
        parallel.checkpointPath = checkpointPath;

    const auto trackLabel = [](std::size_t index, bool isMaster) {
        return isMaster ? std::string("master")
                        : "slave-" + std::to_string(index);
    };
    if (!report.empty()) {
        parallel.instrument = [&traces, &trackLabel](SqsSimulation& sim,
                                                     std::size_t index,
                                                     bool isMaster) {
            traces.attach(sim.engine(), trackLabel(index, isMaster));
        };
        // Runs on the slave's own thread after it quiesces.
        parallel.onSlaveDone = [&telemetry,
                                &trackLabel](const SqsSimulation& sim,
                                             std::size_t index) {
            TelemetrySlab& slab =
                telemetry.slab(trackLabel(index, false));
            sampleEngineTelemetry(slab, sim.engine());
            sampleStatsTelemetry(slab, sim.stats());
            if (sim.failureProbe())
                sampleFailureTelemetry(slab, sim.failureProbe()());
        };
    }
    // The terminal ("merged") snapshot is held back and written after
    // the rest of the report.
    ParallelProgressSnapshot merged;
    if (!report.empty() || progress) {
        parallel.progress = [&report, &merged,
                             progress](const ParallelProgressSnapshot& snap) {
            if (snap.phase == "merged")
                merged = snap;
            else if (!report.empty())
                writeJsonFile(report + "status.json",
                              parallelStatusJson(snap, false));
            if (progress)
                printProgressLine(parallelProgressLine(snap));
        };
    }

    ParallelRunner runner(
        [experiment](SqsSimulation& sim) { experiment->buildInto(sim); },
        parallel);
    const ParallelResult result =
        checkpoint.has_value() ? runner.resume(*checkpoint)
                               : runner.run(seed);
    if (progress)
        std::fprintf(stderr, "\r\033[K");
    if (!report.empty()) {
        writeResult(report + "result.json", result.toSqsResult());
        telemetry.write(report + "telemetry.json");
        traces.write(report + "trace.json");
        if (!result.timelines.empty())
            writeTimelineJsonl(report + "timeline.jsonl", result.timelines);
        writeJsonFile(report + "status.json",
                      parallelStatusJson(merged, true));
    }
    if (!csv) {
        std::printf("parallel run: %zu slaves (%zu healthy), %s backend, "
                    "%llu total events, %.3fs wall, %s [%s]%s\n",
                    slaves, result.healthySlaves,
                    simBackendName(result.backend),
                    static_cast<unsigned long long>(result.totalEvents),
                    result.wallSeconds,
                    result.converged ? "converged" : "NOT converged",
                    terminationReasonName(result.termination),
                    result.degraded ? " (degraded)" : "");
        if (result.failures.has_value()) {
            std::printf("%s\n",
                        summarizeFailures(*result.failures).c_str());
        }
        if (result.resumedBaseEvents != 0) {
            std::printf("resumed: %llu events inherited from the "
                        "checkpoint\n",
                        static_cast<unsigned long long>(
                            result.resumedBaseEvents));
        }
        for (std::size_t s = 0; s < result.slaveReports.size(); ++s) {
            const SlaveReport& slave = result.slaveReports[s];
            if (slave.status == SlaveStatus::Ok)
                continue;
            std::printf("slave %zu: %s%s%s%s\n", s,
                        slaveStatusName(slave.status),
                        slave.abandoned ? " (abandoned)" : "",
                        slave.error.empty() ? "" : " — ",
                        slave.error.c_str());
        }
    }
    printEstimates(result.estimates, csv);
    return result.converged ? 0 : 1;
}
