/**
 * @file
 * Microbenchmarks (google-benchmark) for distribution sampling — every
 * simulated task costs at least two draws (gap + size), so draw rate
 * bounds end-to-end simulator throughput.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "base/random.hh"
#include "distribution/basic.hh"
#include "distribution/empirical.hh"
#include "distribution/fit.hh"
#include "distribution/heavy_tail.hh"
#include "distribution/phase_type.hh"

namespace {

using namespace bighouse;

void
sampleLoop(benchmark::State& state, const Distribution& dist)
{
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(dist.sample(rng));
    state.SetItemsProcessed(state.iterations());
}

void
BM_RawUniform(benchmark::State& state)
{
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform01());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RawUniform);

void
BM_Exponential(benchmark::State& state)
{
    sampleLoop(state, Exponential(1.0));
}
BENCHMARK(BM_Exponential);

void
BM_LogNormal(benchmark::State& state)
{
    sampleLoop(state, LogNormal::fromMeanCv(1.0, 2.0));
}
BENCHMARK(BM_LogNormal);

void
BM_GammaShape05(benchmark::State& state)
{
    sampleLoop(state, Gamma(0.5, 1.0));
}
BENCHMARK(BM_GammaShape05);

void
BM_HyperExponential(benchmark::State& state)
{
    sampleLoop(state, HyperExponential::fromMeanCv(1.0, 4.0));
}
BENCHMARK(BM_HyperExponential);

void
BM_BoundedPareto(benchmark::State& state)
{
    sampleLoop(state, BoundedPareto(1.5, 0.1, 1000.0));
}
BENCHMARK(BM_BoundedPareto);

void
BM_Empirical(benchmark::State& state)
{
    // The BigHouse-native path: inverse transform over a histogram CDF.
    Rng build(7);
    const Exponential source(1.0);
    const auto empirical = EmpiricalDistribution::fromDistribution(
        source, build, 200000, static_cast<std::size_t>(state.range(0)));
    sampleLoop(state, empirical);
}
BENCHMARK(BM_Empirical)->Arg(100)->Arg(1000)->Arg(10000);

void
BM_EmpiricalWebService(benchmark::State& state)
{
    // The shipped web.service.dist (Cv 3.5, 1,196 empty bins), the
    // mg1_recurrence service input: most of its mass sits in a few bins,
    // so the top guide cell spans over a thousand bins.
    sampleLoop(state, EmpiricalDistribution::fromFile(
                          BIGHOUSE_DATA_DIR "/web.service.dist"));
}
BENCHMARK(BM_EmpiricalWebService);

} // namespace

BENCHMARK_MAIN();
