/**
 * @file
 * Microbenchmarks (google-benchmark) for the statistics package: per-
 * observation cost of the metric pipeline (the price of statistical
 * termination), histogram insertion, and the runs-up calibration test.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "base/random.hh"
#include "stats/histogram.hh"
#include "stats/metric.hh"
#include "stats/runs_test.hh"

namespace {

using namespace bighouse;

/** Insertion of values spread log-uniformly over range(0) octaves. */
void
BM_HistogramAdd(benchmark::State& state)
{
    Rng rng(1);
    const auto octaves = static_cast<double>(state.range(0));
    std::vector<double> values(4096);
    for (double& x : values)
        x = 1e-3 * std::exp2(rng.uniform(0.0, octaves));
    Histogram hist;
    std::size_t i = 0;
    for (auto _ : state)
        hist.add(values[i++ & 4095]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd)->Arg(1)->Arg(10)->Arg(40);

void
BM_MetricRecordMeasurement(benchmark::State& state)
{
    MetricSpec spec;
    spec.name = "bench";
    spec.warmupSamples = 0;
    spec.calibrationSamples = 5000;
    spec.target = ConfidenceSpec{1e-9, 0.95};  // never converges
    OutputMetric metric(spec);
    Rng rng(2);
    // Push through calibration so the loop measures steady-state cost.
    for (int i = 0; i < 5000; ++i)
        metric.record(rng.exponential(1.0));
    for (auto _ : state)
        metric.record(rng.exponential(1.0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricRecordMeasurement);

void
BM_RunsUpStatistic(benchmark::State& state)
{
    Rng rng(3);
    std::vector<double> xs(5000);
    for (double& x : xs)
        x = rng.uniform01();
    for (auto _ : state)
        benchmark::DoNotOptimize(runsUpStatistic(xs));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunsUpStatistic);

void
BM_LagSearchAutocorrelated(benchmark::State& state)
{
    // The full calibration cost on a stubbornly correlated stream.
    Rng rng(4);
    std::vector<double> xs(5000);
    double previous = 0.0;
    for (double& x : xs) {
        previous = 0.9 * previous + 0.1 * rng.exponential(1.0);
        x = previous;
    }
    for (auto _ : state) {
        const LagResult result = findLag(xs);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LagSearchAutocorrelated);

} // namespace

BENCHMARK_MAIN();
