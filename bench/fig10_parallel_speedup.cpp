/**
 * @file
 * Regenerates paper Fig. 10: parallel simulation speedup vs. number of
 * slaves, with the calibration-phase Amdahl bottleneck.
 *
 * The experiment mirrors the paper's: E = .01 (so the required sample is
 * "just under 40,000" at Cv ~ 1) and a 5000-observation calibration that
 * every slave must execute serially before it can contribute measurement
 * samples. In the paper, speedup therefore tracks the ideal line up to
 * ~8 slaves and flattens by 16.
 *
 * The paper measured wall-clock across 4 hosts. The bench runs the
 * *real* threaded master/slave protocol (unique seeds, per-slave
 * calibration, aggregate-size convergence, histogram merge — Fig. 3) but
 * up to 16 slaves share the host's cores, so instead of wall-clock it
 * counts the events each slave executed and reports the speedup model
 *    T(k) ~ max_s (slaveCalibration_s + measure_s)
 * (the master runs no events: its bins need no calibration) relative to
 * one slave. Estimate correctness is checked against the serial run. See
 * DESIGN.md substitution #3.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "parallel/parallel.hh"
#include "distribution/fit.hh"

using namespace bighouse;

namespace {

ExperimentSpec
cappingExperiment(double accuracy)
{
    // A quad-core capped server at 60% load with a Cv = 2 service
    // distribution: response times are autocorrelated enough that
    // calibration picks lags of 1-3 and the E=.01 sample is large and
    // *stable* across seeds (heavier tails make the required sample
    // itself a high-variance quantity, which would swamp the figure).
    ExperimentSpec spec;
    spec.workload.name = "capping-fig10";
    spec.workload.interarrival = fitMeanCv(1.0 / 2.4, 1.0);
    spec.workload.service = fitMeanCv(1.0, 2.0);
    spec.servers = 1;
    spec.coresPerServer = 4;
    PowerCappingSpec capping;
    capping.budgetFraction = 0.9;
    capping.dvfs = DvfsModel(ServerPowerSpec{150.0, 150.0, 5.0}, 0.9, 0.5);
    spec.capping = capping;  // the capping model runs; response converges
    spec.sqs.accuracy = accuracy;
    return spec;
}

} // namespace

int
main()
{
    constexpr double kAccuracy = 0.01;  // "we run the simulation with
                                        //  E = .01" (Sec. 4.2)
    std::printf("=== Fig. 10: parallel simulation speedup ===\n");
    std::printf("E = .01; every slave pays the 5000-observation "
                "calibration before contributing samples\n\n");

    // Serial reference run.
    const SqsResult serial =
        Experiment(cappingExperiment(kAccuracy)).run(1010);
    std::printf("serial reference: %s\n",
                summarizeRun(serial).c_str());
    std::printf("  required sample: %llu accepted observations; lag %zu "
                "(the paper's Cv~1 workload needed 'just under 40,000'; "
                "this Cv=2 service needs ~4x that per Eq. 2, which "
                "enlarges the parallelizable measurement phase)\n\n",
                static_cast<unsigned long long>(
                    serial.estimates[0].accepted),
                serial.estimates[0].lag);

    auto experiment =
        std::make_shared<Experiment>(cappingExperiment(kAccuracy));
    ModelBuilder builder = [experiment](SqsSimulation& sim) {
        experiment->buildInto(sim);
    };

    // All configurations share one root seed, so slave s draws the same
    // stream at every cluster size (the k=1 slave set is a prefix of the
    // k=16 set) and speedup is not confounded by per-seed lag choices.
    // T(k) is the critical path in events: the slowest slave's
    // calibration + measurement share; speedup is T(1)/T(k), the paper's
    // baseline.
    constexpr std::uint64_t kRootSeed = 2020;
    auto criticalEvents = [](const ParallelResult& result) {
        std::uint64_t slowest = 0;
        for (std::uint64_t events : result.slaveTotalEvents)
            slowest = std::max(slowest, events);
        return slowest;
    };

    // Each point averages several root seeds: the runs-up test picks the
    // lag from a finite sample, so per-run event counts carry lag noise
    // the real deployment would also see; averaging recovers the trend.
    constexpr int kReplications = 5;
    TextTable table({"slaves", "speedup (SQS)", "ideal", "efficiency",
                     "avg T(k) events", "merged mean vs serial"});
    double baseline = 0.0;
    for (const std::size_t slaves : {1u, 2u, 4u, 8u, 16u}) {
        double criticalSum = 0.0;
        double ratioSum = 0.0;
        for (int rep = 0; rep < kReplications; ++rep) {
            ParallelConfig cfg;
            cfg.slaves = slaves;
            cfg.sqs.accuracy = kAccuracy;
            cfg.slaveBatchEvents = 5000;
            ParallelRunner runner(builder, cfg);
            const ParallelResult result =
                runner.run(kRootSeed + static_cast<std::uint64_t>(rep));
            criticalSum += static_cast<double>(criticalEvents(result));
            ratioSum +=
                result.estimates[0].mean / serial.estimates[0].mean;
        }
        const double critical = criticalSum / kReplications;
        if (slaves == 1)
            baseline = critical;
        const double speedup = baseline / critical;
        table.addRow({std::to_string(slaves), formatG(speedup, 4),
                      std::to_string(slaves),
                      formatG(speedup / static_cast<double>(slaves), 3),
                      formatG(critical, 6),
                      formatG(ratioSum / kReplications, 4)});
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("csv:\n%s\n", table.toCsv().c_str());
    std::printf("Shape check vs. the paper: near-ideal scaling while each "
                "slave has a core, then the per-slave warm-up + "
                "5000-observation calibration (an Amdahl serial term) bends "
                "the curve flat; with more slaves than cores the slowest "
                "slave's share also depends on thread scheduling. Merged "
                "estimates agree with the serial run (ratio ~ 1 within "
                "E).\n");
    return 0;
}
