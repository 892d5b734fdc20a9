/**
 * @file
 * Tests for the distribution library. The backbone is a parameterized
 * property suite: for every family, a large sampled stream must reproduce
 * the analytic mean and variance the object reports, all draws must be
 * non-negative, and clones must be behaviorally identical.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/math_utils.hh"
#include "base/random.hh"
#include "distribution/basic.hh"
#include "distribution/compose.hh"
#include "distribution/heavy_tail.hh"
#include "distribution/phase_type.hh"

namespace bighouse {
namespace {

struct DistCase
{
    DistCase(std::string caseName, std::function<DistPtr()> factory,
             double tol = 1.0)
        : tolScale(tol), name(std::move(caseName)), make(std::move(factory))
    {
    }

    /// Sampling tolerance multiplier for high-variance families. It is
    /// the first member because gtest prints a case as its raw bytes and
    /// gtest_discover_tests appends that print to each ctest name: led
    /// by the name's string pointer, the print began with a heap address
    /// that ASLR moves in every test discovery, so the Mixture names
    /// changed from build to build.
    double tolScale;
    std::string name;
    std::function<DistPtr()> make;
};

class DistributionProperty : public ::testing::TestWithParam<DistCase>
{
};

TEST_P(DistributionProperty, SampledMomentsMatchAnalytic)
{
    const DistPtr dist = GetParam().make();
    Rng rng(0xD15Eu);
    constexpr int n = 400000;
    std::vector<double> xs(n);
    for (double& x : xs)
        x = dist->sample(rng);

    const double mu = dist->mean();
    const double var = dist->variance();
    // Standard error of the mean is sigma/sqrt(n); allow 5 SE plus scale.
    const double seMean = std::sqrt(var / n);
    EXPECT_NEAR(sampleMean(xs), mu,
                GetParam().tolScale * (5.0 * seMean + 1e-12))
        << dist->describe();
    // Variance estimates converge slower; allow 10% relative by default.
    if (var > 0) {
        EXPECT_NEAR(sampleVariance(xs), var,
                    GetParam().tolScale * 0.10 * var)
            << dist->describe();
    } else {
        EXPECT_DOUBLE_EQ(sampleVariance(xs), 0.0);
    }
}

TEST_P(DistributionProperty, SamplesAreNonNegative)
{
    const DistPtr dist = GetParam().make();
    Rng rng(0xBEEF);
    for (int i = 0; i < 20000; ++i)
        ASSERT_GE(dist->sample(rng), 0.0) << dist->describe();
}

TEST_P(DistributionProperty, CloneSamplesIdentically)
{
    const DistPtr dist = GetParam().make();
    const DistPtr copy = dist->clone();
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_DOUBLE_EQ(dist->sample(a), copy->sample(b));
}

TEST_P(DistributionProperty, CvConsistentWithMoments)
{
    const DistPtr dist = GetParam().make();
    if (dist->mean() > 0) {
        EXPECT_NEAR(dist->cv(), dist->stddev() / dist->mean(), 1e-12);
    }
}

DistPtr
makeMixture()
{
    std::vector<Mixture::Component> parts;
    parts.push_back({0.7, std::make_unique<Exponential>(10.0)});
    parts.push_back({0.3, std::make_unique<Uniform>(0.5, 1.5)});
    return std::make_unique<Mixture>(std::move(parts));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, DistributionProperty,
    ::testing::Values(
        DistCase{"DeterministicSmall",
                 [] { return std::make_unique<Deterministic>(0.25); }},
        DistCase{"DeterministicZero",
                 [] { return std::make_unique<Deterministic>(0.0); }},
        DistCase{"UniformUnit",
                 [] { return std::make_unique<Uniform>(0.0, 1.0); }},
        DistCase{"UniformShifted",
                 [] { return std::make_unique<Uniform>(2.0, 6.0); }},
        DistCase{"ExponentialFast",
                 [] { return std::make_unique<Exponential>(25.0); }},
        DistCase{"ExponentialSlow",
                 [] { return std::make_unique<Exponential>(0.2); }},
        DistCase{"LogNormalModerate",
                 [] {
                     return std::make_unique<LogNormal>(
                         LogNormal::fromMeanCv(2.0, 0.8));
                 }},
        DistCase{"LogNormalHeavy",
                 [] {
                     return std::make_unique<LogNormal>(
                         LogNormal::fromMeanCv(1.0, 2.0));
                 },
                 3.0},
        DistCase{"WeibullShape05",
                 [] { return std::make_unique<Weibull>(0.5, 1.0); }, 2.0},
        DistCase{"WeibullShape2", [] { return std::make_unique<Weibull>(2.0, 3.0); }},
        DistCase{"BoundedPareto",
                 [] { return std::make_unique<BoundedPareto>(1.5, 0.1, 100.0); },
                 3.0},
        DistCase{"GammaShapeBelow1",
                 [] { return std::make_unique<Gamma>(0.5, 2.0); }, 2.0},
        DistCase{"GammaShape1", [] { return std::make_unique<Gamma>(1.0, 0.5); }},
        DistCase{"GammaShape7", [] { return std::make_unique<Gamma>(7.0, 0.25); }},
        DistCase{"HyperExpCv2",
                 [] {
                     return std::make_unique<HyperExponential>(
                         HyperExponential::fromMeanCv(1.0, 2.0));
                 },
                 2.0},
        DistCase{"HyperExpCv4",
                 [] {
                     return std::make_unique<HyperExponential>(
                         HyperExponential::fromMeanCv(0.05, 4.0));
                 },
                 4.0},
        DistCase{"Mixture", makeMixture},
        DistCase{"AffineScaledExp",
                 [] {
                     return std::make_unique<Affine>(
                         std::make_unique<Exponential>(2.0), 3.0, 0.5);
                 }}),
    [](const ::testing::TestParamInfo<DistCase>& paramInfo) {
        return paramInfo.param.name;
    });

TEST(Deterministic, AlwaysSameValue)
{
    Deterministic d(1.5);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(d.sample(rng), 1.5);
    EXPECT_DOUBLE_EQ(d.cv(), 0.0);
}

TEST(Exponential, CvIsOne)
{
    EXPECT_NEAR(Exponential(3.7).cv(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(Exponential::fromMean(0.25).mean(), 0.25);
}

TEST(LogNormal, FromMeanCvHitsTargets)
{
    const auto d = LogNormal::fromMeanCv(5.0, 1.3);
    EXPECT_NEAR(d.mean(), 5.0, 1e-9);
    EXPECT_NEAR(d.cv(), 1.3, 1e-9);
}

TEST(HyperExponential, FromMeanCvHitsTargets)
{
    for (double cv : {1.0, 1.2, 2.0, 3.4, 15.0}) {
        const auto d = HyperExponential::fromMeanCv(0.186, cv);
        EXPECT_NEAR(d.mean(), 0.186, 1e-9) << "cv=" << cv;
        EXPECT_NEAR(d.cv(), cv, 1e-6) << "cv=" << cv;
    }
}

TEST(Gamma, FromMeanCvHitsTargets)
{
    for (double cv : {0.1, 0.5, 0.9}) {
        const auto d = Gamma::fromMeanCv(2.0, cv);
        EXPECT_NEAR(d.mean(), 2.0, 1e-9);
        EXPECT_NEAR(d.cv(), cv, 1e-9);
    }
}

TEST(BoundedPareto, MomentsAgainstNumericIntegration)
{
    // alpha=2, lo=1, hi=10: C = alpha*lo^a/(1-(lo/hi)^a) = 2/(1-0.01)
    const BoundedPareto d(2.0, 1.0, 10.0);
    const double c = 2.0 / (1.0 - 0.01);
    const double m1 = c * (std::pow(10.0, -1.0) - 1.0) / -1.0;  // k=1
    const double m2 = c * std::log(10.0);                       // k = alpha
    EXPECT_NEAR(d.mean(), m1, 1e-12);
    EXPECT_NEAR(d.variance(), m2 - m1 * m1, 1e-12);
}

TEST(Mixture, MeanIsWeightedAverage)
{
    std::vector<Mixture::Component> parts;
    parts.push_back({1.0, std::make_unique<Deterministic>(1.0)});
    parts.push_back({3.0, std::make_unique<Deterministic>(5.0)});
    const Mixture mix(std::move(parts));
    EXPECT_NEAR(mix.mean(), 0.25 * 1.0 + 0.75 * 5.0, 1e-12);
    // Variance of a two-point distribution {1 w.p. .25, 5 w.p. .75}.
    const double m = 4.0;
    EXPECT_NEAR(mix.variance(), 0.25 * 9.0 + 0.75 * 1.0 + (m - m) * 0, 1e-12);
}

TEST(Affine, TransformsMoments)
{
    const Affine a(std::make_unique<Exponential>(2.0), 4.0, 1.0);
    EXPECT_NEAR(a.mean(), 4.0 * 0.5 + 1.0, 1e-12);
    EXPECT_NEAR(a.variance(), 16.0 * 0.25, 1e-12);
}

TEST(Scaled, HelperScalesMean)
{
    const Exponential e(1.0);
    const DistPtr s = scaled(e, 0.5);
    EXPECT_NEAR(s->mean(), 0.5, 1e-12);
    EXPECT_NEAR(s->cv(), 1.0, 1e-12);
}

TEST(DistributionDeathTest, InvalidParametersAreFatal)
{
    EXPECT_EXIT(Exponential(0.0), ::testing::ExitedWithCode(1), "rate");
    EXPECT_EXIT(Exponential(-1.0), ::testing::ExitedWithCode(1), "rate");
    EXPECT_EXIT(Uniform(5.0, 1.0), ::testing::ExitedWithCode(1), "Uniform");
    EXPECT_EXIT(Deterministic(-2.0), ::testing::ExitedWithCode(1), ">= 0");
    EXPECT_EXIT(Weibull(0.0, 1.0), ::testing::ExitedWithCode(1), "Weibull");
    EXPECT_EXIT(BoundedPareto(1.0, 2.0, 1.0), ::testing::ExitedWithCode(1),
                "BoundedPareto");
    EXPECT_EXIT(Gamma(-1.0, 1.0), ::testing::ExitedWithCode(1), "Gamma");
    EXPECT_EXIT(HyperExponential(1.5, 1.0, 1.0),
                ::testing::ExitedWithCode(1), "probability");
    EXPECT_EXIT(HyperExponential::fromMeanCv(1.0, 0.5),
                ::testing::ExitedWithCode(1), "cv >= 1");
    EXPECT_EXIT(Mixture(std::vector<Mixture::Component>{}),
                ::testing::ExitedWithCode(1), "at least one");
    EXPECT_EXIT(Affine(std::make_unique<Exponential>(1.0), -1.0),
                ::testing::ExitedWithCode(1), "scale");
}

} // namespace
} // namespace bighouse
