#include "distribution/empirical.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "base/logging.hh"
#include "base/math_utils.hh"

namespace bighouse {

void
EmpiricalDistribution::finalize(std::vector<double> binWeights)
{
    BH_ASSERT(!binWeights.empty(), "empirical histogram needs >= 1 bin");
    double total = 0.0;
    for (double w : binWeights) {
        BH_ASSERT(w >= 0.0, "negative bin weight");
        total += w;
    }
    BH_ASSERT(total > 0.0, "empirical histogram has no mass");
    cumulative.resize(binWeights.size());
    double running = 0.0;
    for (std::size_t i = 0; i < binWeights.size(); ++i) {
        running += binWeights[i];
        cumulative[i] = running / total;
    }
    cumulative.back() = 1.0;
    binWidth = (hi - lo) / static_cast<double>(cumulative.size());
    buildGuide();
}

void
EmpiricalDistribution::buildGuide()
{
    const std::size_t n = cumulative.size();
    BH_ASSERT(n <= std::numeric_limits<std::uint32_t>::max(),
              "too many bins for a 32-bit guide table");
    guide.resize(n);
    // Every edge k/n is < 1 == cumulative.back(), so the scan stays in
    // the table.
    std::size_t bin = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const double edge = static_cast<double>(k) / static_cast<double>(n);
        while (cumulative[bin] < edge)
            ++bin;
        guide[k] = static_cast<std::uint32_t>(bin);
    }
}

EmpiricalDistribution
EmpiricalDistribution::fromSamples(std::span<const double> samples,
                                   std::size_t binCount)
{
    if (samples.empty())
        fatal("EmpiricalDistribution::fromSamples: empty sample");
    if (binCount == 0)
        fatal("EmpiricalDistribution::fromSamples: binCount must be >= 1");

    EmpiricalDistribution dist;
    const auto [minIt, maxIt] =
        std::minmax_element(samples.begin(), samples.end());
    if (*minIt < 0)
        fatal("EmpiricalDistribution: negative observation ", *minIt);
    dist.lo = *minIt;
    dist.hi = *maxIt;
    if (dist.hi == dist.lo)
        dist.hi = dist.lo + 1e-12 + 1e-9 * std::abs(dist.lo);

    std::vector<double> weights(binCount, 0.0);
    const double width = (dist.hi - dist.lo) / static_cast<double>(binCount);
    for (double x : samples) {
        auto bin = static_cast<std::size_t>((x - dist.lo) / width);
        if (bin >= binCount)
            bin = binCount - 1;
        weights[bin] += 1.0;
    }

    dist.sampleMeanValue = sampleMean(samples);
    dist.sampleVarianceValue = sampleVariance(samples);
    dist.count = samples.size();
    dist.finalize(std::move(weights));
    return dist;
}

EmpiricalDistribution
EmpiricalDistribution::fromDistribution(const Distribution& source, Rng& rng,
                                        std::size_t sampleCount,
                                        std::size_t binCount)
{
    if (sampleCount == 0)
        fatal("EmpiricalDistribution::fromDistribution: sampleCount == 0");
    std::vector<double> samples(sampleCount);
    for (double& x : samples)
        x = source.sample(rng);
    return fromSamples(samples, binCount);
}

double
EmpiricalDistribution::sample(Rng& rng) const
{
    return quantile(rng.uniform01());
}

double
EmpiricalDistribution::quantile(double q) const
{
    BH_ASSERT(q >= 0.0 && q <= 1.0, "quantile needs q in [0,1]");
    // Start where q's cell begins and step to the std::lower_bound bin:
    // back over entries >= q, forward over entries < q. The guide only
    // shortens the walk (floor(q * n) may round into a neighbouring
    // cell); the compares decide the bin. cumulative.back() == 1 >= q
    // stops the forward walk inside the table.
    const std::size_t n = cumulative.size();
    const auto cell =
        std::min(static_cast<std::size_t>(q * static_cast<double>(n)), n - 1);
    std::size_t bin = guide[cell];
    while (bin > 0 && cumulative[bin - 1] >= q)
        --bin;
    while (cumulative[bin] < q)
        ++bin;
    const double cdfLo = bin == 0 ? 0.0 : cumulative[bin - 1];
    const double cdfHi = cumulative[bin];
    const double frac =
        cdfHi > cdfLo ? (q - cdfLo) / (cdfHi - cdfLo) : 0.5;
    return lo + (static_cast<double>(bin) + frac) * binWidth;
}

std::string
EmpiricalDistribution::describe() const
{
    std::ostringstream oss;
    oss << "Empirical(n=" << count << ", bins=" << cumulative.size()
        << ", range=[" << lo << ", " << hi << "])";
    return oss.str();
}

DistPtr
EmpiricalDistribution::clone() const
{
    return std::make_unique<EmpiricalDistribution>(*this);
}

void
EmpiricalDistribution::toFile(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open ", path, " for writing");
    out.precision(17);
    out << "# BigHouse empirical distribution v1\n";
    out << "count " << count << "\n";
    out << "mean " << sampleMeanValue << "\n";
    out << "variance " << sampleVarianceValue << "\n";
    out << "range " << lo << " " << hi << "\n";
    out << "bins " << cumulative.size() << "\n";
    // Store the CDF at each bin edge; exact to reload.
    for (double c : cumulative)
        out << c << "\n";
    if (!out)
        fatal("write error on ", path);
}

EmpiricalDistribution
EmpiricalDistribution::fromFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open distribution file ", path);

    EmpiricalDistribution dist;
    std::string line;
    std::size_t bins = 0;
    bool haveRange = false;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream iss(line);
        std::string key;
        iss >> key;
        if (key == "count") {
            iss >> dist.count;
        } else if (key == "mean") {
            iss >> dist.sampleMeanValue;
        } else if (key == "variance") {
            iss >> dist.sampleVarianceValue;
        } else if (key == "range") {
            iss >> dist.lo >> dist.hi;
            haveRange = true;
        } else if (key == "bins") {
            iss >> bins;
            break;
        } else {
            fatal("unknown key '", key, "' in ", path);
        }
        if (!iss)
            fatal("malformed line '", line, "' in ", path);
    }
    if (bins == 0 || !haveRange || dist.hi <= dist.lo)
        fatal("incomplete distribution header in ", path);
    if (bins > std::numeric_limits<std::uint32_t>::max())
        fatal("bins ", bins, " in ", path, " exceeds the 32-bit bin index");

    dist.cumulative.resize(bins);
    double prev = 0.0;
    for (std::size_t i = 0; i < bins; ++i) {
        if (!(in >> dist.cumulative[i]))
            fatal("truncated bin data in ", path);
        if (dist.cumulative[i] < prev || dist.cumulative[i] > 1.0 + 1e-12)
            fatal("non-monotone CDF in ", path);
        prev = dist.cumulative[i];
    }
    if (std::abs(prev - 1.0) > 1e-12)
        fatal("CDF in ", path, " ends at ", prev, ", not 1");
    if (std::string extra; in >> extra)
        fatal("unexpected '", extra, "' after the ", bins,
              " declared bin values in ", path);
    dist.cumulative.back() = 1.0;
    dist.binWidth = (dist.hi - dist.lo) / static_cast<double>(bins);
    dist.buildGuide();
    return dist;
}

} // namespace bighouse
