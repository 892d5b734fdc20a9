/**
 * @file
 * Regenerates paper Fig. 2: the sequence of phases in a BigHouse
 * simulation (warm-up -> calibration -> measurement -> convergence).
 *
 * Runs one M/G/1 simulation with an autocorrelated response-time metric
 * and prints each phase transition with the observation and event counts
 * at which it occurred, plus the calibration product (lag spacing l from
 * the runs-up test), the histogram's size, and the final estimates.
 */

#include <cstdio>
#include <memory>

#include "core/report.hh"
#include "core/sqs.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"

using namespace bighouse;

int
main()
{
    std::printf("=== Fig. 2: the sequence of phases in a BigHouse "
                "simulation ===\n\n");

    SqsConfig config;
    config.warmupSamples = 2000;       // Nw (user-specified, Sec. 2.3)
    config.calibrationSamples = 5000;  // the paper's runs-up sample
    config.accuracy = 0.05;
    SqsSimulation sim(config, 2024);
    const auto id = sim.addMetric("response_time");

    // M/G/1 at rho = 0.8 with Cv = 2 service: response times are strongly
    // autocorrelated, so calibration must choose a lag > 1.
    auto server = std::make_shared<Server>(sim.engine(), 1);
    StatsCollection& stats = sim.stats();
    server->setCompletionHandler([&stats, id](const Task& task) {
        stats.record(id, task.responseTime());
    });
    auto source = std::make_shared<Source>(
        sim.engine(), *server, std::make_unique<Exponential>(0.8),
        fitMeanCv(1.0, 2.0), sim.rootRng().split());
    source->start();
    sim.holdModel(server);
    sim.holdModel(source);

    TextTable table({"phase entered", "offered obs", "accepted obs",
                     "events", "sim time (s)"});
    Phase last = Phase::Warmup;
    std::uint64_t events = 0;
    table.addRow({"warmup", "0", "0", "0", "0"});
    while (!stats.allConverged()) {
        const std::uint64_t ran = sim.runBatch(2000);
        events += ran;
        if (ran == 0)
            break;
        const OutputMetric& metric = stats.metric(id);
        // The collection holds warm-up globally; report its view.
        const Phase now = stats.warmedUp() ? metric.phase() : Phase::Warmup;
        if (now != last) {
            table.addRow({phaseName(now),
                          std::to_string(metric.offeredCount()),
                          std::to_string(metric.acceptedCount()),
                          std::to_string(events),
                          formatG(sim.engine().now(), 4)});
            last = now;
        }
    }
    std::printf("%s\n", table.toText().c_str());

    const OutputMetric& metric = stats.metric(id);
    std::printf("calibration product:\n");
    std::printf("  lag spacing l = %zu (runs-up test %s) -> keep every "
                "%zu-th observation\n",
                metric.lag(), metric.lagTestPassed() ? "passed" : "FAILED",
                metric.lag());
    std::printf("  histogram: %zu log-linear bins allocated after "
                "measurement (edges fixed in advance, not calibrated)\n\n",
                metric.sample().histogram.binCount());
    std::printf("%s\n", stats.report().c_str());
    std::printf("Reading: all %llu warm-up observations were discarded; "
                "calibration started from the paper's 5000-observation "
                "buffer (extending it until the runs-up test passed); "
                "measurement then kept every l-th observation until "
                "N >= max(Nm, Nq) = %llu.\n",
                static_cast<unsigned long long>(config.warmupSamples),
                static_cast<unsigned long long>(
                    metric.requiredSamples(metric.sample().accumulator)));
    return 0;
}
