#include "stats/metric.hh"

#include <algorithm>
#include <cmath>

#include "base/contracts.hh"
#include "base/logging.hh"
#include "stats/runs_test.hh"

namespace bighouse {

const char*
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Warmup: return "warmup";
      case Phase::Calibration: return "calibration";
      case Phase::Measurement: return "measurement";
      case Phase::Converged: return "converged";
    }
    return "unknown";
}

OutputMetric::OutputMetric(MetricSpec s)
    : spec(std::move(s)),
      currentPhase(spec.warmupSamples > 0 ? Phase::Warmup
                                          : Phase::Calibration),
      criticalZ(spec.target.critical())
{
    if (spec.calibrationSamples < 600) {
        fatal("metric '", spec.name, "': calibrationSamples must be >= 600 "
              "for the runs-up test, got ", spec.calibrationSamples);
    }
    for (double q : spec.quantiles) {
        if (q <= 0.0 || q >= 1.0)
            fatal("metric '", spec.name, "': quantile ", q,
                  " outside (0,1)");
    }
    calibrationBuffer.reserve(spec.calibrationSamples);
    calibrationTarget = spec.calibrationSamples;
}

void
OutputMetric::recordPreMeasurement(double x)
{
    switch (currentPhase) {
      case Phase::Warmup:
        if (++warmupSeen >= spec.warmupSamples)
            currentPhase = Phase::Calibration;
        return;
      case Phase::Calibration:
        calibrationBuffer.push_back(x);
        if (calibrationBuffer.size() >= calibrationTarget)
            completeCalibration();
        return;
      case Phase::Measurement:
      case Phase::Converged:
        // Unreachable: record() routes these phases inline.
        return;
    }
}

void
OutputMetric::completeCalibration()
{
    // Degenerate stream: a (near-)constant metric has nothing for the
    // runs-up test to measure (one endless ascending run of ties), and
    // independence is moot — accept lag 1 directly.
    const auto [minIt, maxIt] = std::minmax_element(
        calibrationBuffer.begin(), calibrationBuffer.end());
    if (*maxIt - *minIt
        <= 1e-12 * std::max(1.0, std::abs(*maxIt))) {
        lagSpacing = 1;
        lagPassed = true;
        calibrationBuffer.clear();
        calibrationBuffer.shrink_to_fit();
        currentPhase = Phase::Measurement;
        return;
    }

    const LagResult result =
        findLag(calibrationBuffer, spec.maxLag, 0.05,
                std::min<std::size_t>(500, spec.calibrationSamples / 8));
    lagSpacing = result.lag;
    lagPassed = result.passed;
    if (!result.passed) {
        // The buffer can only test lags up to size/minPoints; grow it
        // (sequential calibration) before settling for the best lag.
        // Growing is pointless once every lag up to maxLag is already
        // testable — then the data is simply too correlated at maxLag.
        const std::size_t minPoints =
            std::min<std::size_t>(500, spec.calibrationSamples / 8);
        const bool allLagsTestable =
            calibrationBuffer.size() / minPoints >= spec.maxLag;
        const std::size_t ceiling =
            spec.calibrationSamples * spec.maxCalibrationFactor;
        if (!allLagsTestable && calibrationBuffer.size() < ceiling) {
            calibrationTarget =
                std::min<std::size_t>(calibrationBuffer.size() * 2,
                                      ceiling);
            return;  // stay in Calibration, keep collecting
        }
        warn("metric '", spec.name, "': runs-up test failed up to lag ",
             result.lag, " (V=", result.statistic, ") after ",
             calibrationBuffer.size(),
             " calibration observations; proceeding with the largest "
             "testable lag");
    }
    calibrationBuffer.clear();
    calibrationBuffer.shrink_to_fit();
    currentPhase = Phase::Measurement;
}

std::uint64_t
OutputMetric::requiredSamples() const
{
    std::uint64_t required = requiredSamplesMean(
        criticalZ, accumulator.mean(), accumulator.stddev(),
        spec.target.accuracy);
    for (double q : spec.quantiles) {
        required = std::max(required,
                            requiredSamplesQuantile(criticalZ, q,
                                                    spec.target.accuracy));
    }
    return required;
}

bool
OutputMetric::evaluateConvergence()
{
    if (currentPhase == Phase::Converged)
        return true;
    if (currentPhase != Phase::Measurement || accumulator.count() == 0)
        return false;
    if (accumulator.count() >= requiredSamples()) {
        currentPhase = Phase::Converged;
        return true;
    }
    return false;
}

void
OutputMetric::enterMeasurement()
{
    if (calibrated())
        return;
    calibrationBuffer.clear();
    calibrationBuffer.shrink_to_fit();
    currentPhase = Phase::Measurement;
}

void
OutputMetric::absorb(const OutputMetric& other)
{
    BH_REQUIRE(other.calibrated(),
               "absorb of a metric that has not completed calibration");
    enterMeasurement();
    lagSpacing = std::max(lagSpacing, other.lagSpacing);
    const std::uint64_t before = accumulator.count();
    accumulator.merge(other.accumulator);
    hist.merge(other.hist);
    offered += other.offered;
    BH_ENSURE(accumulator.count() == before + other.accumulator.count(),
              "absorb lost sample weight");
}

void
OutputMetric::absorbSample(const Accumulator& sample,
                           const Histogram& sampleHist)
{
    enterMeasurement();
    const std::uint64_t before = accumulator.count();
    accumulator.merge(sample);
    hist.merge(sampleHist);
    offered += sample.count();
    BH_ENSURE(accumulator.count() == before + sample.count(),
              "absorbSample lost sample weight");
}

MetricEstimate
OutputMetric::estimate() const
{
    MetricEstimate est;
    est.name = spec.name;
    est.phase = currentPhase;
    est.converged = currentPhase == Phase::Converged;
    est.accepted = accumulator.count();
    est.offered = offered;
    est.lag = calibrated() ? lagSpacing : 0;
    est.mean = accumulator.mean();
    est.stddev = accumulator.stddev();
    if (accumulator.count() > 0) {
        est.required = requiredSamples();
        est.min = accumulator.min();
        est.max = accumulator.max();
        const Interval ci = meanInterval(criticalZ, accumulator.mean(),
                                         accumulator.stddev(),
                                         accumulator.count());
        est.meanHalfWidth = ci.halfWidth;
        est.relativeHalfWidth =
            est.mean == 0.0 ? 0.0 : ci.halfWidth / std::abs(est.mean);
    }
    if (hist.count() > 0) {
        est.quantiles.reserve(spec.quantiles.size());
        const auto n = static_cast<double>(hist.count());
        for (double q : spec.quantiles) {
            QuantileEstimate qe;
            qe.q = q;
            qe.value = hist.quantile(q);
            // Binomial order-statistic bound in probability space.
            const double delta =
                criticalZ * std::sqrt(q * (1.0 - q) / n);
            qe.lower = hist.quantile(std::max(0.0, q - delta));
            qe.upper = hist.quantile(std::min(1.0, q + delta));
            est.quantiles.push_back(qe);
        }
    }
    return est;
}

} // namespace bighouse
