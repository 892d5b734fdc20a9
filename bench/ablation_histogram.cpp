/**
 * @file
 * Ablation: log-linear histogram quantiles vs. sort-everything.
 *
 * The paper adopts the Chen & Kelton histogram representation because
 * "recording and sorting the entire sample sequence to determine
 * quantiles imposes a large burden". This bench quantifies both sides of
 * that trade for the log-linear histogram (stats/histogram.hh, 2^8
 * sub-bins per power of two, no calibration): the relative error of the
 * interpolated p50/p95/p99/p99.9 against the exact order statistic, and
 * the memory one metric's histogram holds vs. the raw sample.
 *
 * Streams: four synthetic distributions, raw draws from the shipped
 * data/web.service.dist, the sojourn and wait of an M/G/1 queue with that
 * service at rho = .8 and the sojourn of an M/M/1 queue at rho = .9
 * (Lindley recurrences, so consecutive values are strongly correlated),
 * and a 0/1 indicator.
 *
 *   build/bench/ablation_histogram
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "core/report.hh"
#include "distribution/basic.hh"
#include "distribution/empirical.hh"
#include "distribution/fit.hh"
#include "distribution/heavy_tail.hh"
#include "stats/histogram.hh"

using namespace bighouse;

namespace {

constexpr std::size_t kSamples = 5'000'000;

/** The k-th smallest observation, k = ceil(q n): what quantile(q) targets. */
double
orderStatistic(const std::vector<double>& sorted, double q)
{
    const double target = q * static_cast<double>(sorted.size());
    const auto k = static_cast<std::size_t>(std::ceil(target));
    return sorted[std::max<std::size_t>(k, 1) - 1];
}

/** One observation per call; the generator owns its RNG and state. */
using Stream = std::function<double()>;

/** Sojourn (or wait) times of a single-server FCFS queue, Lindley style. */
Stream
lindley(const Distribution& service, double rho, bool wait,
        std::uint64_t seed)
{
    const double lambda = rho / service.mean();
    return [&service, lambda, wait, rng = Rng(seed),
            w = 0.0]() mutable {
        const double s = service.sample(rng);
        const double out = wait ? w : w + s;
        w = std::max(0.0, w + s - rng.exponential(lambda));
        return out;
    };
}

Stream
draws(const Distribution& dist, std::uint64_t seed)
{
    return [&dist, rng = Rng(seed)]() mutable { return dist.sample(rng); };
}

} // namespace

int
main()
{
    std::printf("=== Ablation: log-linear histogram vs. exact sort ===\n");
    std::printf("%zu observations per stream; %llu sub-bins per power of "
                "two (relative bin width <= %.3g%%), no calibration\n\n",
                kSamples,
                static_cast<unsigned long long>(Histogram::kSubBins),
                100.0 / static_cast<double>(Histogram::kSubBins));

    const Exponential exponential(1.0);
    const DistPtr hyperExp = fitMeanCv(1.0, 4.0);
    const DistPtr logNormal = fitLogNormalMeanCv(1.0, 2.0);
    const BoundedPareto pareto(1.5, 0.1, 1000.0);
    const EmpiricalDistribution web = EmpiricalDistribution::fromFile(
        BIGHOUSE_DATA_DIR "/web.service.dist");

    struct Case
    {
        const char* name;
        Stream next;
    };
    std::vector<Case> cases;
    cases.push_back({"Exponential(1)", draws(exponential, 1)});
    cases.push_back({"HyperExp(cv=4)", draws(*hyperExp, 2)});
    cases.push_back({"LogNormal(cv=2)", draws(*logNormal, 3)});
    cases.push_back({"BoundedPareto(1.5)", draws(pareto, 4)});
    cases.push_back({"web.service.dist draws", draws(web, 5)});
    cases.push_back({"M/G/1 web rho=.8 sojourn", lindley(web, 0.8, false, 6)});
    cases.push_back({"M/G/1 web rho=.8 wait", lindley(web, 0.8, true, 7)});
    cases.push_back(
        {"M/M/1 rho=.9 sojourn", lindley(exponential, 0.9, false, 8)});
    cases.push_back({"Bernoulli(0.8) 0/1",
                     [rng = Rng(9)]() mutable {
                         return rng.bernoulli(0.8) ? 1.0 : 0.0;
                     }});

    const double qs[] = {0.50, 0.95, 0.99, 0.999};
    TextTable table({"stream", "p50 err %", "p95 err %", "p99 err %",
                     "p99.9 err %", "bins", "hist KB", "raw sample KB"});
    double worstError = 0.0;
    double worstKb = 0.0;
    for (Case& testCase : cases) {
        std::vector<double> sample(kSamples);
        Histogram hist;
        for (double& x : sample) {
            x = testCase.next();
            hist.add(x);
        }
        std::sort(sample.begin(), sample.end());
        std::vector<std::string> row{testCase.name};
        for (const double q : qs) {
            const double exact = orderStatistic(sample, q);
            const double error =
                exact == 0.0 ? std::abs(hist.quantile(q))
                             : std::abs(hist.quantile(q) / exact - 1.0);
            worstError = std::max(worstError, error);
            row.push_back(formatG(100.0 * error, 3));
        }
        const double kb = static_cast<double>(hist.binCount()
                                              * sizeof(std::uint64_t))
                          / 1024.0;
        worstKb = std::max(worstKb, kb);
        row.push_back(std::to_string(hist.binCount()));
        row.push_back(formatG(kb, 3));
        row.push_back(formatG(
            static_cast<double>(kSamples * sizeof(double)) / 1024.0, 5));
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("largest |error| %.3g%%, largest histogram %.3g KB\n\n",
                100.0 * worstError, worstKb);
    std::printf("Reading: every quantile lies within one relative bin "
                "width (%.3g%%) of the order statistic, on heavy tails and "
                "correlated queue streams alike, with no calibration "
                "sample to outgrow; a histogram is tens of KB where the "
                "raw sample is tens of MB, and any two merge by adding "
                "counts (the slave merge needs no shared layout).\n",
                100.0 / static_cast<double>(Histogram::kSubBins));
    return 0;
}
