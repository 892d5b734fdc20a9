/**
 * @file
 * Regenerates paper Fig. 4: 95th-percentile latency of a Google Web
 * Search leaf node vs. load (% of peak QPS), one line per CPU performance
 * setting SCPU in {1.0, 1.1, 1.3, 1.6, 2.0}.
 *
 * The paper plots BigHouse predictions (lines) against production
 * hardware measurements (points, unavailable here); this bench
 * regenerates the lines. The workload is the Table-1 Google model; SCPU
 * stretches service times directly, as in the [24] characterization.
 * Combinations where the slowed-down server would saturate (offered
 * load per server, offeredLoad(), >= 0.95) are skipped, as they fall
 * outside the figure's operating range.
 */

#include <cstdio>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/library.hh"

using namespace bighouse;

int
main()
{
    constexpr unsigned kCores = 4;
    const std::vector<double> scpuSettings = {1.0, 1.1, 1.3, 1.6, 2.0};
    const std::vector<double> qpsPercents = {20, 30, 40, 50, 60, 70};

    std::printf("=== Fig. 4: Google Web search performance scaling ===\n");
    std::printf("95th-percentile latency (ms) vs. QPS (%% of max), one "
                "column per SCPU\n(4-core leaf, Table-1 google workload, "
                "95%% confidence, E = 5%%)\n\n");

    TextTable table({"QPS %", "SCPU=1.0", "SCPU=1.1", "SCPU=1.3",
                     "SCPU=1.6", "SCPU=2.0"});
    for (const double qps : qpsPercents) {
        std::vector<std::string> row{formatG(qps, 3)};
        for (const double scpu : scpuSettings) {
            ExperimentSpec spec;
            spec.workload =
                scaledToLoad(makeWorkload("google"), kCores, qps / 100.0);
            spec.coresPerServer = kCores;
            spec.cpuSlowdown = scpu;
            spec.sqs.accuracy = 0.05;
            if (offeredLoad(spec) >= 0.95) {
                row.push_back("(saturated)");
                continue;
            }
            const SqsResult result =
                Experiment(std::move(spec))
                    .run(4000 + static_cast<std::uint64_t>(qps));
            row.push_back(
                formatG(result.estimates[0].quantiles[0].value * 1e3, 4));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("csv:\n%s\n", table.toCsv().c_str());
    std::printf("Shape check vs. the paper: p95 rises with QPS; higher "
                "SCPU shifts every curve up and steepens the knee "
                "(paper range ~10-30 ms over QPS 20-70%%; validation "
                "error vs. hardware was 9.2%%).\n");
    return 0;
}
