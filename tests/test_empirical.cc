/**
 * @file
 * Tests for the histogram-backed empirical distribution: construction from
 * samples, inverse-transform sampling fidelity, quantiles, the indexed CDF
 * search's exactness against a binary search, and the .dist file round trip
 * and loader checks used by the workload library.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <span>
#include <string>
#include <vector>

#include "base/math_utils.hh"
#include "base/random.hh"
#include "distribution/basic.hh"
#include "distribution/empirical.hh"
#include "distribution/phase_type.hh"

namespace bighouse {
namespace {

std::vector<double>
drawMany(const Distribution& d, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> xs(n);
    for (double& x : xs)
        x = d.sample(rng);
    return xs;
}

/// A .dist file's range and CDF, parsed here so the reference search
/// below shares no code with the loader under test.
struct CdfTable
{
    double lo = 0.0;
    double hi = 0.0;
    std::vector<double> cumulative;
};

CdfTable
readCdf(const std::string& path)
{
    std::ifstream in(path);
    CdfTable table;
    std::size_t bins = 0;
    std::string key;
    while (bins == 0 && in >> key) {
        if (key == "#") {
            std::getline(in, key);
        } else if (key == "range") {
            in >> table.lo >> table.hi;
        } else if (key == "bins") {
            in >> bins;
        } else {
            double ignored = 0.0; // count, mean, variance
            in >> ignored;
        }
    }
    table.cumulative.resize(bins);
    for (double& c : table.cumulative)
        in >> c;
    return table;
}

/// Reference quantile: the same interpolation after a std::lower_bound
/// search of the CDF.
double
binarySearchQuantile(const CdfTable& table, double q)
{
    const auto& cdf = table.cumulative;
    const auto bin = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), q) - cdf.begin());
    if (bin >= cdf.size())
        return table.hi;
    const double binWidth =
        (table.hi - table.lo) / static_cast<double>(cdf.size());
    const double cdfLo = bin == 0 ? 0.0 : cdf[bin - 1];
    const double cdfHi = cdf[bin];
    const double frac =
        cdfHi > cdfLo ? (q - cdfLo) / (cdfHi - cdfLo) : 0.5;
    return table.lo + (static_cast<double>(bin) + frac) * binWidth;
}

/// q = 0 and 1, every stored CDF value and every cell edge k/n with their
/// nextafter neighbours, then `draws` uniform01() values.
std::vector<double>
probePoints(const CdfTable& table, std::size_t draws, std::uint64_t seed)
{
    std::vector<double> qs = {0.0, 1.0};
    const auto addWithNeighbours = [&qs](double q) {
        qs.push_back(std::nextafter(q, 0.0));
        qs.push_back(q);
        qs.push_back(std::nextafter(q, 1.0));
    };
    for (double c : table.cumulative)
        addWithNeighbours(c);
    const auto n = static_cast<double>(table.cumulative.size());
    for (std::size_t k = 0; k <= table.cumulative.size(); ++k)
        addWithNeighbours(static_cast<double>(k) / n);
    Rng rng(seed);
    for (std::size_t i = 0; i < draws; ++i)
        qs.push_back(rng.uniform01());
    return qs;
}

::testing::AssertionResult
matchesBinarySearch(const EmpiricalDistribution& dist, const CdfTable& table,
                    std::span<const double> qs)
{
    if (dist.binCount() != table.cumulative.size())
        return ::testing::AssertionFailure()
               << dist.binCount() << " bins vs " << table.cumulative.size()
               << " in the reference";
    for (double q : qs) {
        const double indexed = dist.quantile(q);
        const double reference = binarySearchQuantile(table, q);
        if (std::bit_cast<std::uint64_t>(indexed)
            != std::bit_cast<std::uint64_t>(reference))
            return ::testing::AssertionFailure()
                   << std::setprecision(17) << "q=" << q << ": indexed "
                   << indexed << ", binary search " << reference;
    }
    return ::testing::AssertionSuccess();
}

TEST(Empirical, PreservesSourceMoments)
{
    const Exponential source(2.0);
    const auto samples = drawMany(source, 200000, 1);
    const auto emp = EmpiricalDistribution::fromSamples(samples, 2000);
    // Recorded moments are the exact sample moments.
    EXPECT_NEAR(emp.mean(), sampleMean(samples), 1e-12);
    EXPECT_NEAR(emp.variance(), sampleVariance(samples), 1e-9);
    EXPECT_EQ(emp.observationCount(), samples.size());
}

TEST(Empirical, ResamplingReproducesMoments)
{
    const HyperExponential source = HyperExponential::fromMeanCv(1.0, 2.0);
    const auto samples = drawMany(source, 300000, 2);
    const auto emp = EmpiricalDistribution::fromSamples(samples, 4000);

    const auto redraw = drawMany(emp, 300000, 3);
    EXPECT_NEAR(sampleMean(redraw), 1.0, 0.03);
    // Binning clips the extreme tail, so allow a generous variance band.
    EXPECT_NEAR(sampleStddev(redraw) / sampleMean(redraw), 2.0, 0.25);
}

TEST(Empirical, SamplesStayInRange)
{
    const auto samples = std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0};
    const auto emp = EmpiricalDistribution::fromSamples(samples, 4);
    Rng rng(4);
    for (int i = 0; i < 10000; ++i) {
        const double x = emp.sample(rng);
        ASSERT_GE(x, emp.rangeLo());
        ASSERT_LE(x, emp.rangeHi());
    }
}

TEST(Empirical, QuantilesOfUniformGrid)
{
    // 10k uniform samples on [0,1] -> quantile(q) ~ q.
    const Uniform source(0.0, 1.0);
    const auto samples = drawMany(source, 100000, 5);
    const auto emp = EmpiricalDistribution::fromSamples(samples, 1000);
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        EXPECT_NEAR(emp.quantile(q), q, 0.01) << "q=" << q;
    }
    EXPECT_NEAR(emp.quantile(0.0), 0.0, 0.01);
    EXPECT_NEAR(emp.quantile(1.0), 1.0, 0.01);
}

TEST(Empirical, QuantileMonotone)
{
    const Exponential source(1.0);
    const auto samples = drawMany(source, 50000, 6);
    const auto emp = EmpiricalDistribution::fromSamples(samples, 500);
    double prev = -1.0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const double x = emp.quantile(q);
        ASSERT_GE(x, prev);
        prev = x;
    }
}

TEST(Empirical, ConstantSampleDegenerates)
{
    const std::vector<double> samples(100, 3.5);
    const auto emp = EmpiricalDistribution::fromSamples(samples, 10);
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_NEAR(emp.sample(rng), 3.5, 1e-6);
    EXPECT_DOUBLE_EQ(emp.mean(), 3.5);
}

TEST(Empirical, FromDistributionMatchesSource)
{
    const Exponential source(5.0);
    Rng rng(8);
    const auto emp =
        EmpiricalDistribution::fromDistribution(source, rng, 200000, 2000);
    EXPECT_NEAR(emp.mean(), 0.2, 0.005);
    EXPECT_NEAR(emp.cv(), 1.0, 0.05);
}

TEST(Empirical, FileRoundTrip)
{
    const Exponential source(3.0);
    const auto samples = drawMany(source, 50000, 9);
    const auto original = EmpiricalDistribution::fromSamples(samples, 750);

    const std::string path = ::testing::TempDir() + "/bh_empirical_test.dist";
    original.toFile(path);
    const auto loaded = EmpiricalDistribution::fromFile(path);
    std::remove(path.c_str());

    EXPECT_DOUBLE_EQ(loaded.mean(), original.mean());
    EXPECT_DOUBLE_EQ(loaded.variance(), original.variance());
    EXPECT_EQ(loaded.observationCount(), original.observationCount());
    EXPECT_EQ(loaded.binCount(), original.binCount());
    EXPECT_DOUBLE_EQ(loaded.rangeLo(), original.rangeLo());
    EXPECT_DOUBLE_EQ(loaded.rangeHi(), original.rangeHi());
    // Same CDF -> identical draws under the same stream.
    Rng a(10), b(10);
    for (int i = 0; i < 1000; ++i)
        ASSERT_DOUBLE_EQ(original.sample(a), loaded.sample(b));
}

TEST(Empirical, CompactFootprint)
{
    // The paper: "a typical distribution occupies less than 1 MB".
    const Exponential source(1.0);
    const auto samples = drawMany(source, 1000000, 11);
    const auto emp = EmpiricalDistribution::fromSamples(samples, 10000);
    const std::string path = ::testing::TempDir() + "/bh_footprint.dist";
    emp.toFile(path);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long bytes = std::ftell(f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_LT(bytes, 1 << 20);
}

TEST(Empirical, IndexedSearchMatchesBinarySearch)
{
    constexpr std::size_t kDraws = 1000000;
    std::size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(BIGHOUSE_DATA_DIR)) {
        if (entry.path().extension() != ".dist")
            continue;
        ++files;
        const std::string path = entry.path().string();
        const CdfTable table = readCdf(path);
        const auto qs = probePoints(table, kDraws, files);
        EXPECT_TRUE(matchesBinarySearch(
            EmpiricalDistribution::fromFile(path), table, qs))
            << path;
    }
    EXPECT_EQ(files, 10u) << "expected the ten Table-1 workload files";

    // Empty interior bins (CDF plateaus), a long empty top cell, a single
    // bin, and the constant-sample degenerate case; each checked as built
    // (finalize) and after a file round trip (fromFile).
    std::vector<double> bimodal = drawMany(Uniform(1.0, 2.0), 5000, 12);
    for (double x : drawMany(Uniform(8.0, 9.0), 5000, 13))
        bimodal.push_back(x);
    std::vector<double> outlier = drawMany(Exponential(1.0), 10000, 14);
    outlier.push_back(1000.0);
    const std::vector<double> few = {1.0, 2.0, 3.0};
    const std::vector<double> constant(100, 3.5);
    const EmpiricalDistribution fixtures[] = {
        EmpiricalDistribution::fromSamples(bimodal, 500),
        EmpiricalDistribution::fromSamples(outlier, 2000),
        EmpiricalDistribution::fromSamples(few, 1),
        EmpiricalDistribution::fromSamples(constant, 10),
    };
    const std::string path = ::testing::TempDir() + "/bh_guide_fixture.dist";
    std::uint64_t seed = 100;
    for (const auto& fixture : fixtures) {
        fixture.toFile(path);
        const CdfTable table = readCdf(path);
        const auto qs = probePoints(table, kDraws, ++seed);
        EXPECT_TRUE(matchesBinarySearch(fixture, table, qs))
            << fixture.describe();
        EXPECT_TRUE(matchesBinarySearch(
            EmpiricalDistribution::fromFile(path), table, qs))
            << fixture.describe() << " (reloaded)";
    }

    // Bins 7 and 8 end one ulp below the edge 0.9 (bin 8 is empty).
    // q equal to that value has floor(q * 10) == 9, so the walk must step
    // back from guide[9] == 9 across the plateau to bin 7.
    {
        std::ofstream out(path);
        out << std::setprecision(17) << "range 0 10\nbins 10\n";
        for (int i = 1; i <= 7; ++i)
            out << i / 10.0 << "\n";
        const double belowEdge = std::nextafter(0.9, 0.0);
        out << belowEdge << "\n" << belowEdge << "\n1\n";
    }
    const CdfTable table = readCdf(path);
    EXPECT_TRUE(matchesBinarySearch(EmpiricalDistribution::fromFile(path),
                                    table, probePoints(table, 0, 0)));
    std::remove(path.c_str());
}

void
writeText(const std::string& path, const std::string& text)
{
    std::ofstream(path) << text;
}

TEST(EmpiricalDeathTest, RejectsBadInput)
{
    EXPECT_EXIT(EmpiricalDistribution::fromSamples({}, 10),
                ::testing::ExitedWithCode(1), "empty");
    const std::vector<double> neg = {1.0, -0.5};
    EXPECT_EXIT(EmpiricalDistribution::fromSamples(neg, 10),
                ::testing::ExitedWithCode(1), "negative");
    const std::vector<double> ok = {1.0, 2.0};
    EXPECT_EXIT(EmpiricalDistribution::fromSamples(ok, 0),
                ::testing::ExitedWithCode(1), "binCount");
    EXPECT_EXIT(EmpiricalDistribution::fromFile("/nonexistent/x.dist"),
                ::testing::ExitedWithCode(1), "cannot open");

    const std::string header = "range 0 4\nbins 4\n";
    // A CDF that stops short of 1 would put the missing mass in the top bin.
    const std::string shortCdf = ::testing::TempDir() + "/bh_short_cdf.dist";
    writeText(shortCdf, header + "0.1\n0.2\n0.3\n0.5\n");
    EXPECT_EXIT(EmpiricalDistribution::fromFile(shortCdf),
                ::testing::ExitedWithCode(1),
                "CDF in .*bh_short_cdf\\.dist ends at 0\\.5");
    // Values past the declared count mean the header's `bins` is wrong.
    const std::string extra = ::testing::TempDir() + "/bh_extra_cdf.dist";
    writeText(extra, header + "0.25\n0.5\n0.75\n1\n1\n\n");
    EXPECT_EXIT(EmpiricalDistribution::fromFile(extra),
                ::testing::ExitedWithCode(1),
                "unexpected '1' after the 4 declared bin values in "
                ".*bh_extra_cdf\\.dist");
    // The guide table indexes bins with 32 bits. 2^62 bins is past any
    // vector's max_size(), so without the check the loader would throw
    // before allocating.
    writeText(extra, "range 0 1\nbins 4611686018427387904\n");
    EXPECT_EXIT(EmpiricalDistribution::fromFile(extra),
                ::testing::ExitedWithCode(1), "exceeds the 32-bit bin index");
    // Trailing blank lines are not content.
    writeText(extra, header + "0.25\n0.5\n0.75\n1\n\n  \n");
    EXPECT_EQ(EmpiricalDistribution::fromFile(extra).binCount(), 4u);
    std::remove(shortCdf.c_str());
    std::remove(extra.c_str());
}

} // namespace
} // namespace bighouse
