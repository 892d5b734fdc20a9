/**
 * @file
 * OutputMetric: the per-metric sampling pipeline of Fig. 2.
 *
 * Each output metric progresses through
 *   1. Warm-up      — discard the first Nw observations (cold-start bias),
 *   2. Calibration  — buffer observations; run the runs-up test to choose
 *                     the lag spacing l,
 *   3. Measurement  — keep every l-th observation, feeding the accumulator
 *                     and the log-linear histogram (whose bins need no
 *                     calibration; see stats/histogram.hh),
 *   4. Convergence  — the accepted sample reaches max(Nm, Nq) (Eqs. 2-3).
 *
 * Calibration observations are used only for calibration, not estimation:
 * they were taken at unit lag and would violate the independence the
 * convergence formulas assume.
 */

#ifndef BIGHOUSE_STATS_METRIC_HH
#define BIGHOUSE_STATS_METRIC_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/accumulator.hh"
#include "stats/confidence.hh"
#include "stats/histogram.hh"

namespace bighouse {

/** Phases of a metric's sampling sequence (paper Fig. 2). */
enum class Phase { Warmup, Calibration, Measurement, Converged };

/** Render a Phase as text. */
const char* phaseName(Phase phase);

/** User-supplied description of one output metric. */
struct MetricSpec
{
    std::string name = "metric";
    /// Nw: observations discarded before calibration. The paper: "no
    /// rigorous method for automatically detecting steady-state is
    /// available and Nw must be explicitly specified by the user."
    std::uint64_t warmupSamples = 1000;
    /// Calibration sample size; 5000 is the figure the paper reports for
    /// the runs-up test.
    std::uint64_t calibrationSamples = 5000;
    ConfidenceSpec target;             ///< E and confidence level
    std::vector<double> quantiles = {0.95};
    std::size_t maxLag = 64;
    /// If no lag in [1, maxLag] passes the runs-up test (the buffer can
    /// only test lags up to size/minPoints), calibration keeps collecting
    /// — doubling the buffer up to this multiple of calibrationSamples —
    /// before settling for the best lag found (with a warning).
    std::size_t maxCalibrationFactor = 8;
    /// Convergence is re-evaluated every this many accepted observations.
    std::uint64_t checkInterval = 64;
};

/**
 * One quantile's estimate with a distribution-free confidence interval:
 * the binomial bound q ± z*sqrt(q(1-q)/n) in probability space, mapped
 * through the histogram CDF to value space (Chen & Kelton).
 */
struct QuantileEstimate
{
    double q = 0.0;
    double value = 0.0;
    double lower = 0.0;  ///< CI lower bound (value space)
    double upper = 0.0;  ///< CI upper bound (value space)
};

/** Snapshot of a metric's current estimates. */
struct MetricEstimate
{
    std::string name;
    Phase phase = Phase::Warmup;
    bool converged = false;
    std::uint64_t accepted = 0;     ///< observations in the estimate
    std::uint64_t offered = 0;      ///< total observations seen
    std::size_t lag = 0;            ///< 0 until calibration completes
    std::uint64_t required = 0;     ///< max(Nm, Nq) at this point
    double mean = 0.0;
    double meanHalfWidth = 0.0;     ///< CLT CI half-width
    double relativeHalfWidth = 0.0; ///< achieved E for the mean
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<QuantileEstimate> quantiles;
};

/** The sampling pipeline for one output metric. */
class OutputMetric
{
  public:
    explicit OutputMetric(MetricSpec spec);

    /**
     * Offer one observation; routed according to the current phase.
     *
     * Inline fast path: in the Measurement/Converged steady state (where
     * a converged-length run spends virtually all observations) this is
     * a lag-counter bump, and every lag-th call flows straight into the
     * accumulator and histogram without leaving the header. The cold
     * warm-up/calibration routing lives in recordPreMeasurement().
     */
    void
    record(double x)
    {
        ++offered;
        if (static_cast<int>(currentPhase)
            >= static_cast<int>(Phase::Measurement)) [[likely]] {
            // Keep every lag-th observation; extra post-convergence
            // observations only sharpen the estimate.
            if (++sinceAccepted >= lagSpacing) {
                sinceAccepted = 0;
                acceptObservation(x);
            }
            return;
        }
        recordPreMeasurement(x);
    }

    /**
     * Offer a block of observations — semantically `for (x : xs)
     * record(x)`, bit-identical in every accumulator, histogram, and
     * phase transition, but with the lag filter amortized per block: in
     * the measurement steady state the loop jumps straight from one
     * accepted observation to the next (lag-spacing stride) instead of
     * bumping a counter per sample. The vectorized recurrence backend
     * records whole batches through this path.
     */
    void
    recordMany(std::span<const double> xs)
    {
        std::size_t i = 0;
        const std::size_t n = xs.size();
        // Cold prefix: route per-sample until calibration completes (the
        // phase can flip to Measurement anywhere inside the block).
        while (i < n
               && static_cast<int>(currentPhase)
                      < static_cast<int>(Phase::Measurement)) {
            record(xs[i]);
            ++i;
        }
        if (i == n)
            return;
        offered += n - i;
        while (i < n) {
            // record() accepts when ++sinceAccepted reaches lagSpacing;
            // the next accepted element is therefore `need` samples in.
            const std::uint64_t need = lagSpacing - sinceAccepted;
            if (need > n - i) {
                sinceAccepted += n - i;
                return;
            }
            i += static_cast<std::size_t>(need) - 1;
            sinceAccepted = 0;
            acceptObservation(xs[i]);
            ++i;
        }
    }

    /** Current phase. */
    Phase phase() const { return currentPhase; }

    /** True once the accepted sample satisfies Eqs. 2-3. */
    bool converged() const { return currentPhase == Phase::Converged; }

    /** Lag spacing chosen by calibration (1 before calibration). */
    std::size_t lag() const { return lagSpacing; }

    /**
     * Whether this metric's own runs-up test passed at lag(); false on a
     * merge target that never calibrated.
     */
    bool lagTestPassed() const { return lagPassed; }

    /**
     * Slave mode: strip convergence authority — the metric never
     * self-converges; the master decides from aggregate counts.
     */
    void disableSelfConvergence() { selfConvergence = false; }

    /**
     * Merge another metric's measured sample into this one (Fig. 3).
     * A target still in warm-up or calibration (the parallel master,
     * which runs no events) moves to Measurement, so the merged sample
     * can converge; lag() becomes the largest lag absorbed.
     * @pre `other` completed calibration
     */
    void absorb(const OutputMetric& other);

    /**
     * Merge a raw (accumulator, histogram) sample — a checkpointed
     * slave's contribution revived without its OutputMetric. Moves a
     * target that is not yet measuring to Measurement, like absorb().
     */
    void absorbSample(const Accumulator& sample, const Histogram& hist);

    /**
     * Re-evaluate convergence from the current (possibly merged) sample;
     * used by the master after absorb(). Promotes the phase to Converged
     * when satisfied.
     */
    bool evaluateConvergence();

    /** Required sample size max(Nm, Nq) given current estimates. */
    std::uint64_t requiredSamples() const;

    /** Observations accepted into the estimate so far. */
    std::uint64_t acceptedCount() const { return accumulator.count(); }

    /** Total observations offered (all phases). */
    std::uint64_t offeredCount() const { return offered; }

    /** Current estimates snapshot. */
    MetricEstimate estimate() const;

    /** The spec this metric was created with. */
    const MetricSpec& specification() const { return spec; }

    /** Measurement histogram (empty until calibration completes). */
    const Histogram& histogram() const { return hist; }

    /** Accumulator over accepted observations. */
    const Accumulator& sampleAccumulator() const { return accumulator; }

  private:
    /** Warm-up and calibration routing (cold; called until measurement). */
    void recordPreMeasurement(double x);
    void completeCalibration();
    /** Merge-target side of absorb()/absorbSample(): start measuring. */
    void enterMeasurement();
    /** Calibration is done: Measurement or Converged. */
    bool
    calibrated() const
    {
        return static_cast<int>(currentPhase)
               >= static_cast<int>(Phase::Measurement);
    }

    /**
     * Fold an accepted observation into the estimate. Inline: together
     * with record() this flattens the whole per-sample chain
     * (lag filter -> Welford update -> histogram bin) into one call-free
     * sequence; only the periodic convergence check leaves the header.
     */
    void
    acceptObservation(double x)
    {
        accumulator.add(x);
        hist.add(x);
        if (currentPhase == Phase::Converged || !selfConvergence)
            return;
        if (++sinceChecked >= spec.checkInterval) {
            sinceChecked = 0;
            evaluateConvergence();
        }
    }

    MetricSpec spec;
    Phase currentPhase;
    std::uint64_t offered = 0;
    std::uint64_t warmupSeen = 0;
    std::vector<double> calibrationBuffer;
    /// Buffer size that triggers the next runs-up attempt; grows when the
    /// test keeps failing (sequential calibration).
    std::size_t calibrationTarget = 0;
    std::size_t lagSpacing = 1;
    bool lagPassed = false;
    std::uint64_t sinceAccepted = 0;
    std::uint64_t sinceChecked = 0;
    bool selfConvergence = true;
    Histogram hist;
    Accumulator accumulator;
    double criticalZ;
};

} // namespace bighouse

#endif // BIGHOUSE_STATS_METRIC_HH
