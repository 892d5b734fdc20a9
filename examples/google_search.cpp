/**
 * @file
 * Google Web Search power management (paper Sec. 3.1).
 *
 * Models a 16-core Web search leaf node driven by the Table-1 Google
 * workload, sweeps the CPU performance setting (SCPU = relative
 * slowdown) at a chosen load, and reports the 95th-percentile latency —
 * one column of Fig. 4.
 *
 * Run:  ./google_search [qps_percent]
 */

#include <cstdio>
#include <cstdlib>

#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/library.hh"

using namespace bighouse;

int
main(int argc, char** argv)
{
    const double qpsPercent = argc > 1 ? std::atof(argv[1]) : 50.0;
    if (qpsPercent <= 0.0 || qpsPercent >= 100.0) {
        std::fprintf(stderr, "usage: %s [qps_percent in (0,100)]\n",
                     argv[0]);
        return 1;
    }
    constexpr unsigned kCores = 16;

    std::printf("Google Web Search leaf node (%u cores) at %.0f%% QPS\n",
                kCores, qpsPercent);
    std::printf("sweeping SCPU (CPU slowdown); "
                "95%% confidence, E = 5%%\n\n");

    TextTable table({"SCPU", "p95 latency (ms)", "mean latency (ms)",
                     "events", "wall (s)"});
    for (const double scpu : {1.0, 1.1, 1.3, 1.6, 2.0}) {
        ExperimentSpec spec;
        spec.workload =
            scaledToLoad(makeWorkload("google"), kCores, qpsPercent / 100.0);
        spec.coresPerServer = kCores;
        spec.cpuSlowdown = scpu;
        spec.sqs.accuracy = 0.05;
        // At rho >= 1 the queue grows without bound: there is no steady
        // state to estimate, and the Experiment constructor rejects it.
        const double rho = offeredLoad(spec);
        if (rho >= 1.0) {
            table.addRow({formatG(scpu, 3), "saturated (rho " +
                          formatG(rho, 3) + ")", "-", "-", "-"});
            continue;
        }
        const SqsResult result = Experiment(std::move(spec)).run(1234);
        const MetricEstimate& est = result.estimates[0];
        table.addRow({formatG(scpu, 3),
                      formatG(est.quantiles[0].value * 1e3, 4),
                      formatG(est.mean * 1e3, 4),
                      std::to_string(result.events),
                      formatG(result.wallSeconds, 3)});
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("Expectation (paper Fig. 4): p95 grows with SCPU, and the "
                "growth steepens with load.\n");
    return 0;
}
