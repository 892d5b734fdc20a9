/**
 * @file
 * bh_perf: the repo's reproducible performance baseline.
 *
 * Runs fixed-seed scenarios covering the DES hot path end to end —
 * event-queue churn, full-engine M/M/k dispatch, the per-observation
 * statistics chain, and a Fig. 7-style power-capped cluster — and emits
 * machine-readable JSON (`BENCH_*.json`, schema `bighouse-bench-v1`)
 * with events/sec, observations/sec and ns/event per scenario. Every
 * future PR is measured against the committed baseline; see
 * docs/performance.md and scripts/check_perf.sh.
 *
 * Unlike the google-benchmark micro_* binaries (interactive exploration,
 * auto-tuned iteration counts), bh_perf runs a *fixed* amount of work
 * under a fixed seed, so two runs execute the bit-identical event
 * sequence and differ only in wall-clock. Each scenario also reports a
 * deterministic checksum so a perf regression can be distinguished from
 * a semantics change at a glance.
 *
 *   bh_perf [--quick] [--out PATH] [--scenario NAME ...]
 *
 * --quick shrinks the workloads for CI smoke runs (same scenarios, same
 * seeds, ~1s total); --scenario limits the run to the named scenarios.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/build_info.hh"
#include "base/random.hh"
#include "config/json.hh"
#include "core/experiment.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"
#include "obs/timeline.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"
#include "sim/engine.hh"
#include "sim/event_queue.hh"
#include "sim/recurrence_backend.hh"
#include "stats/collection.hh"
#include "stats/metric.hh"
#include "workload/library.hh"

using namespace bighouse;

namespace {

/** Wall-clock stopwatch (host measurement, not simulated time). */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

struct ScenarioResult
{
    std::string name;
    std::uint64_t units = 0;     ///< events or observations processed
    std::string unitName;        ///< "events" | "observations" | "tasks"
    double wallSeconds = 0.0;
    double checksum = 0.0;       ///< deterministic workload fingerprint
    JsonValue::Object extra;     ///< scenario-specific fields
};

/** events/sec (or observations/sec) with divide-by-zero guarded. */
double
ratePerSec(std::uint64_t units, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(units) / seconds : 0.0;
}

double
nsPerUnit(std::uint64_t units, double seconds)
{
    return units > 0 ? seconds * 1e9 / static_cast<double>(units) : 0.0;
}

/**
 * Event-queue churn at steady depth 16384 plus a cancel-heavy phase —
 * the micro_event_queue benchmark, fixed-length.
 */
ScenarioResult
runMicroEventQueue(bool quick)
{
    const std::uint64_t churn = quick ? 300000 : 4000000;
    const std::uint64_t cancelChurn = churn / 2;
    ScenarioResult result;
    result.name = "micro_event_queue";
    result.unitName = "events";

    EventQueue queue;
    Rng rng(1);
    double clock = 0.0;
    double checksum = 0.0;
    for (std::size_t i = 0; i < 16384; ++i)
        queue.push(clock + rng.uniform(0.0, 100.0), [] {});

    const Stopwatch watch;
    for (std::uint64_t i = 0; i < churn; ++i) {
        auto popped = queue.pop();
        clock = popped.time;
        checksum += popped.time;
        queue.push(clock + rng.uniform(0.0, 100.0), [] {});
    }
    // Cancel-heavy mix: push+cancel+pop+push per iteration (DVFS shape).
    for (std::uint64_t i = 0; i < cancelChurn; ++i) {
        const EventId id =
            queue.push(clock + rng.uniform(0.0, 10.0), [] {});
        queue.cancel(id);
        auto popped = queue.pop();
        clock = popped.time;
        checksum += popped.time;
        queue.push(clock + rng.uniform(0.0, 10.0), [] {});
    }
    result.wallSeconds = watch.seconds();
    result.units = churn + cancelChurn;
    result.checksum = checksum;
    result.extra["steady_depth"] = JsonValue(16384);
    return result;
}

// The micro_engine / micro_timeline pair feeds a ratio gate (timeline
// overhead <= 5%), so a single timing sample is not good enough:
// scheduler jitter on a ~0.2 s run is itself several percent. Both
// scenarios run kEngineReps fresh replays of the identical fixed-seed
// workload and report the *fastest* — the standard minimum-of-N
// estimator for the noise-free cost.
constexpr int kEngineReps = 5;

/** Full-engine M/M/4 station at 70% utilization (micro_engine's BM_Mmk). */
ScenarioResult
runMicroEngine(bool quick)
{
    const std::uint64_t target = quick ? 200000 : 4000000;
    ScenarioResult result;
    result.name = "micro_engine";
    result.unitName = "events";

    result.wallSeconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kEngineReps; ++rep) {
        Engine sim;
        Server server(sim, 4);
        Source source(sim, server, std::make_unique<Exponential>(0.7 * 4),
                      std::make_unique<Exponential>(1.0), Rng(1));
        source.start();

        const Stopwatch watch;
        std::uint64_t events = 0;
        while (events < target)
            events += sim.run(target - events);
        result.wallSeconds = std::min(result.wallSeconds, watch.seconds());
        result.units = events;
        result.checksum = sim.now();
    }
    result.extra["cores"] = JsonValue(4);
    result.extra["reps"] = JsonValue(kEngineReps);
    return result;
}

/**
 * micro_engine with the timeline probes live: the identical fixed-seed
 * M/M/4 workload with a Timeline collecting queue-depth / busy-core /
 * availability gauges from the server state probe. The checksum must
 * equal micro_engine's exactly (probes draw no RNG and schedule no
 * events), and check_perf.sh gates the ns/event overhead against the
 * uninstrumented twin.
 */
ScenarioResult
runMicroTimeline(bool quick)
{
    const std::uint64_t target = quick ? 200000 : 4000000;
    ScenarioResult result;
    result.name = "micro_timeline";
    result.unitName = "events";

    // The overhead ratio needs a *paired* measurement: bare and
    // instrumented replays alternate within this one scenario so both
    // minimums sample the same few seconds of host frequency / steal
    // time. Comparing against the separately-run micro_engine number
    // would fold minutes of drift into a single-digit-percent gate.
    result.wallSeconds = std::numeric_limits<double>::infinity();
    double bareSeconds = std::numeric_limits<double>::infinity();
    std::uint64_t windows = 0;
    double tracks = 0.0;
    for (int rep = 0; rep < kEngineReps; ++rep) {
        {
            Engine sim;
            Server server(sim, 4);
            Source source(sim, server,
                          std::make_unique<Exponential>(0.7 * 4),
                          std::make_unique<Exponential>(1.0), Rng(1));
            source.start();
            const Stopwatch watch;
            std::uint64_t events = 0;
            while (events < target)
                events += sim.run(target - events);
            bareSeconds = std::min(bareSeconds, watch.seconds());
        }

        TimelineSpec tlSpec;
        // ~2.8 tasks/simulated-second: 1000 s windows keep the harvest
        // a few dozen windows in full mode without tripping the
        // maxWindows valve.
        tlSpec.window = 1000.0;
        Timeline timeline(tlSpec);
        timeline.registerServers(1);

        Engine sim;
        Server server(sim, 4);
        server.setStateProbe(&Timeline::serverProbe, &timeline, 0);
        Source source(sim, server, std::make_unique<Exponential>(0.7 * 4),
                      std::make_unique<Exponential>(1.0), Rng(1));
        source.start();

        const Stopwatch watch;
        std::uint64_t events = 0;
        while (events < target)
            events += sim.run(target - events);
        result.wallSeconds = std::min(result.wallSeconds, watch.seconds());
        result.units = events;
        result.checksum = sim.now();
        const TimelineData data = timeline.harvest(sim.now());
        tracks = static_cast<double>(data.tracks.size());
        for (const TimelineTrackData& track : data.tracks)
            windows =
                std::max<std::uint64_t>(windows, track.windows.size());
    }
    result.extra["bare_ns_per_event"] =
        JsonValue(bareSeconds * 1e9 / static_cast<double>(target));
    result.extra["cores"] = JsonValue(4);
    result.extra["tracks"] = JsonValue(tracks);
    result.extra["windows"] = JsonValue(static_cast<double>(windows));
    result.extra["reps"] = JsonValue(kEngineReps);
    return result;
}

/**
 * The per-observation statistics chain in steady state: warmed-up,
 * calibrated metric absorbing exponential samples (micro_stats's
 * BM_MetricRecordMeasurement, fixed-length).
 */
ScenarioResult
runMicroStats(bool quick)
{
    const std::uint64_t observations = quick ? 2000000 : 40000000;
    ScenarioResult result;
    result.name = "micro_stats";
    result.unitName = "observations";

    MetricSpec spec;
    spec.name = "bench";
    spec.warmupSamples = 0;
    spec.calibrationSamples = 5000;
    spec.target = ConfidenceSpec{1e-9, 0.95};  // never converges
    OutputMetric metric(spec);
    Rng rng(2);
    for (int i = 0; i < 5000; ++i)
        metric.record(rng.exponential(1.0));

    const Stopwatch watch;
    for (std::uint64_t i = 0; i < observations; ++i)
        metric.record(rng.exponential(1.0));
    result.wallSeconds = watch.seconds();
    result.units = observations;
    result.checksum = metric.sample().accumulator.mean();
    result.extra["accepted"] =
        JsonValue(static_cast<double>(metric.acceptedCount()));
    return result;
}

/**
 * Fig. 7 point: a power-capped quad-core cluster run to convergence
 * (DNS workload) — the end-to-end shape every layer contributes to.
 */
ScenarioResult
runFig7Scaling(bool quick)
{
    const std::size_t servers = quick ? 20 : 100;
    ScenarioResult result;
    result.name = "fig7_scaling";
    result.unitName = "events";

    ExperimentSpec spec;
    spec.workload = makeWorkload("dns");
    spec.servers = servers;
    spec.coresPerServer = 4;
    spec.recordCappingLevel = true;
    PowerCappingSpec capping;
    capping.budgetFraction = 0.5;
    capping.dvfs = DvfsModel(ServerPowerSpec{150.0, 150.0, 5.0}, 0.9, 0.5);
    spec.capping = capping;
    spec.sqs.accuracy = 0.05;

    const Stopwatch watch;
    const SqsResult run = Experiment(std::move(spec))
                              .run(7000 + static_cast<std::uint64_t>(servers));
    result.wallSeconds = watch.seconds();
    result.units = run.events;
    result.checksum = run.simulatedTime;
    result.extra["servers"] = JsonValue(static_cast<double>(servers));
    result.extra["converged"] = JsonValue(run.converged);
    return result;
}

/**
 * Raw RecurrenceBackend throughput: one M/M/4 station at 70% utilization
 * streaming pre-sampled blocks through the bulk statistics path — the
 * per-task cost floor of the vectorized backend (compare ns/task against
 * micro_engine's ns/event for the same model under event dispatch).
 */
ScenarioResult
runMicroRecurrence(bool quick)
{
    const std::uint64_t tasks = quick ? 2000000 : 40000000;
    ScenarioResult result;
    result.name = "micro_recurrence";
    result.unitName = "tasks";

    StatsCollection stats;
    MetricSpec spec;
    spec.name = "bench";
    spec.warmupSamples = 0;
    spec.calibrationSamples = 5000;
    spec.target = ConfidenceSpec{1e-9, 0.95};  // never converges
    const auto id = stats.addMetric(spec);
    RecurrenceBackend backend(stats);
    RecurrenceStationSpec station;
    station.interarrival = std::make_unique<Exponential>(0.7 * 4);
    station.service = std::make_unique<Exponential>(1.0);
    station.rng = Rng(1);
    station.cores = 4;
    backend.addStation(std::move(station));
    backend.recordResponseTime(id);

    const Stopwatch watch;
    backend.step(tasks);
    result.wallSeconds = watch.seconds();
    result.units = tasks;
    result.checksum = backend.now();
    result.extra["cores"] = JsonValue(4);
    result.extra["accepted"] = JsonValue(
        static_cast<double>(stats.metric(id).acceptedCount()));
    return result;
}

/**
 * The recurrence-eligible scaling twins: the Fig. 7 scaling axis (big
 * FCFS cluster, one source per server) with the workload reduced to its
 * exponential-moment equivalent (M/M/1 stations at 90% utilization) so
 * both backends draw through the same devirtualized sampling fast path
 * and the ratio isolates the engines rather than the distributions.
 * Both twins run the same fixed event budget (accuracy is set far below
 * reach so the maxEvents valve is the stop, making wall time long enough
 * to measure and identical in work across runs). Units are completed
 * tasks (the response-time metric's offered count) so the twin ns/task
 * columns compare like for like; check_perf.sh gates the recurrence twin
 * at >= 10x the DES twin. Checksums are per-twin only: the two backends
 * stop at different simulated instants (the budget counts engine events
 * for the DES but tasks for the recurrence), so cross-twin checksum
 * equality is NOT expected — the distributional referee lives in
 * tests/test_recurrence.cc.
 */
ScenarioResult
runFig7ScalingTwin(bool quick, SimBackend backend)
{
    const std::size_t servers = 1000;
    const std::uint64_t budget = quick ? 4000000 : 16000000;
    ScenarioResult result;
    result.name = backend == SimBackend::Des ? "fig7_scaling_fcfs"
                                             : "fig7_scaling_recurrence";
    result.unitName = "tasks";

    ExperimentSpec spec;
    spec.workload.name = "expo90";
    spec.workload.interarrival = fitMeanCv(1.0 / 0.9, 1.0);
    spec.workload.service = fitMeanCv(1.0, 1.0);
    spec.servers = servers;
    spec.coresPerServer = 1;
    spec.simBackend = backend;
    spec.sqs.accuracy = 1e-6;  // unreachable: the valve fixes the work
    spec.sqs.maxEvents = budget;
    spec.sqs.batchEvents = 500000;

    const Stopwatch watch;
    const SqsResult run = Experiment(std::move(spec))
                              .run(7100 + static_cast<std::uint64_t>(servers));
    result.wallSeconds = watch.seconds();
    result.units = run.estimates[0].offered;
    result.checksum = run.simulatedTime;
    result.extra["servers"] = JsonValue(static_cast<double>(servers));
    result.extra["converged"] = JsonValue(run.converged);
    result.extra["backend"] =
        JsonValue(std::string(simBackendName(run.backend)));
    result.extra["engine_units"] =
        JsonValue(static_cast<double>(run.events));
    return result;
}

ScenarioResult
runFig7ScalingFcfs(bool quick)
{
    return runFig7ScalingTwin(quick, SimBackend::Des);
}

ScenarioResult
runFig7ScalingRecurrence(bool quick)
{
    return runFig7ScalingTwin(quick, SimBackend::Recurrence);
}

JsonValue
toJson(const ScenarioResult& result)
{
    JsonValue::Object obj;
    obj["name"] = JsonValue(result.name);
    obj[result.unitName] =
        JsonValue(static_cast<double>(result.units));
    obj["wall_seconds"] = JsonValue(result.wallSeconds);
    obj[result.unitName + "_per_sec"] =
        JsonValue(ratePerSec(result.units, result.wallSeconds));
    // "events" -> ns_per_event, "observations" -> ns_per_observation,
    // "tasks" -> ns_per_task.
    obj["ns_per_"
        + result.unitName.substr(0, result.unitName.size() - 1)] =
        JsonValue(nsPerUnit(result.units, result.wallSeconds));
    obj["checksum"] = JsonValue(result.checksum);
    for (const auto& [key, value] : result.extra)
        obj[key] = value;
    return JsonValue(std::move(obj));
}

void
printUsage()
{
    std::printf(
        "usage: bh_perf [--quick] [--out PATH] [--scenario NAME ...]\n"
        "scenarios: micro_event_queue micro_engine micro_timeline "
        "micro_stats micro_recurrence fig7_scaling fig7_scaling_fcfs "
        "fig7_scaling_recurrence\n");
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string outPath = "BENCH_6.json";
    std::vector<std::string> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--scenario" && i + 1 < argc) {
            selected.push_back(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else {
            // bh-lint: allow(raw-stderr) CLI front-end, not library code
            std::fprintf(stderr, "bh_perf: unknown argument '%s'\n",
                         arg.c_str());
            printUsage();
            return 2;
        }
    }

    struct Scenario
    {
        const char* name;
        ScenarioResult (*run)(bool quick);
    };
    const Scenario scenarios[] = {
        {"micro_event_queue", runMicroEventQueue},
        {"micro_engine", runMicroEngine},
        {"micro_timeline", runMicroTimeline},
        {"micro_stats", runMicroStats},
        {"micro_recurrence", runMicroRecurrence},
        {"fig7_scaling", runFig7Scaling},
        {"fig7_scaling_fcfs", runFig7ScalingFcfs},
        {"fig7_scaling_recurrence", runFig7ScalingRecurrence},
    };

    const auto wants = [&selected](const char* name) {
        if (selected.empty())
            return true;
        for (const std::string& s : selected) {
            if (s == name)
                return true;
        }
        return false;
    };

    JsonValue::Array results;
    std::printf("%-22s %14s %10s %14s %12s\n", "scenario", "units",
                "wall (s)", "units/sec", "ns/unit");
    bool ranAny = false;
    for (const Scenario& scenario : scenarios) {
        if (!wants(scenario.name))
            continue;
        ranAny = true;
        const ScenarioResult result = scenario.run(quick);
        std::printf("%-22s %14llu %10.3f %14.0f %12.1f\n",
                    result.name.c_str(),
                    static_cast<unsigned long long>(result.units),
                    result.wallSeconds,
                    ratePerSec(result.units, result.wallSeconds),
                    nsPerUnit(result.units, result.wallSeconds));
        results.push_back(toJson(result));
    }
    if (!ranAny) {
        // bh-lint: allow(raw-stderr) CLI front-end, not library code
        std::fprintf(stderr, "bh_perf: no scenario matched\n");
        return 2;
    }

    JsonValue::Object doc;
    doc["schema"] = JsonValue("bighouse-bench-v1");
    doc["quick"] = JsonValue(quick);
    // Same key set as the telemetry document's "build" object, so every
    // provenance surface agrees byte for byte.
    const BuildInfo& build = buildInfo();
    JsonValue::Object buildObj;
    buildObj["compiler"] = JsonValue(build.compiler);
    buildObj["flags"] = JsonValue(build.flags);
    buildObj["gitDescribe"] = JsonValue(build.gitDescribe);
    buildObj["sanitizer"] = JsonValue(build.sanitizer);
    buildObj["type"] = JsonValue(build.buildType);
    doc["build"] = JsonValue(std::move(buildObj));
    doc["scenarios"] = JsonValue(std::move(results));

    std::ofstream out(outPath);
    if (!out) {
        // bh-lint: allow(raw-stderr) CLI front-end, not library code
        std::fprintf(stderr, "bh_perf: cannot write '%s'\n",
                     outPath.c_str());
        return 1;
    }
    out << JsonValue(std::move(doc)).dump(2) << "\n";
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}
