/**
 * @file
 * Empirical distributions represented as fine-grained histograms — the
 * workload representation at the heart of BigHouse ("workloads as
 * empirically measured distributions of arrival and service times ...
 * represented via fine-grained histograms", Sec. 2.2).
 *
 * An EmpiricalDistribution is built from observed samples (or loaded from a
 * .dist file, the stand-in for the trace-derived files the BigHouse release
 * ships). Sampling uses inverse-transform over the histogram CDF with
 * uniform interpolation inside a bin, so a typical model occupies a few KB
 * ("less than 1 MB, whereas event traces often require multi-gigabyte
 * files").
 *
 * The CDF search is Chen & Asau's indexed search (a "guide table", 1974).
 * With n bins, guide[k] is the first bin whose CDF reaches k/n: one 32-bit
 * entry per bin, 8 KB for the shipped 2,000-bin files. A draw starts at the
 * entry for q's cell and scans to std::lower_bound's bin. The scan's
 * compares decide the bin, so every quantile is bit-identical to a binary
 * search over the CDF, at an expected O(1) cost: the cells' spans sum to at
 * most 2n, so a uniform q scans about two entries.
 */

#ifndef BIGHOUSE_DISTRIBUTION_EMPIRICAL_HH
#define BIGHOUSE_DISTRIBUTION_EMPIRICAL_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "distribution/distribution.hh"

namespace bighouse {

/** Histogram-backed empirical distribution with exact recorded moments. */
class EmpiricalDistribution : public Distribution
{
  public:
    /**
     * Build from raw observations.
     *
     * @param samples observed values (all must be >= 0)
     * @param binCount number of uniform bins spanning [min, max]
     */
    static EmpiricalDistribution fromSamples(std::span<const double> samples,
                                             std::size_t binCount = 1000);

    /**
     * Materialize a histogram model of another distribution by drawing
     * `sampleCount` values — how this repo synthesizes the five Table-1
     * workload files without the original traces.
     */
    static EmpiricalDistribution fromDistribution(const Distribution& dist,
                                                  Rng& rng,
                                                  std::size_t sampleCount,
                                                  std::size_t binCount = 1000);

    /** Load a .dist text file; calls fatal() on malformed input. */
    static EmpiricalDistribution fromFile(const std::string& path);

    /** Write the .dist text representation. */
    void toFile(const std::string& path) const;

    double sample(Rng& rng) const override;
    double mean() const override { return sampleMeanValue; }
    double variance() const override { return sampleVarianceValue; }
    std::string describe() const override;
    DistPtr clone() const override;

    /** Interpolated quantile of the histogram CDF, q in [0, 1]. */
    double quantile(double q) const;

    /** Number of source observations. */
    std::uint64_t observationCount() const { return count; }

    /** Number of bins. */
    std::size_t binCount() const { return cumulative.size(); }

    /** Histogram range. */
    double rangeLo() const { return lo; }
    double rangeHi() const { return hi; }

  private:
    EmpiricalDistribution() = default;

    /** Rebuild the cumulative weights from raw bin counts. */
    void finalize(std::vector<double> binWeights);

    /** Rebuild `guide` from `cumulative`; every construction path calls it. */
    void buildGuide();

    double lo = 0.0;
    double hi = 1.0;
    double binWidth = 1.0;
    /// Normalized CDF at each bin's upper edge; last entry is 1.
    std::vector<double> cumulative;
    /// guide[k]: the first bin whose CDF is >= k / binCount().
    std::vector<std::uint32_t> guide;
    double sampleMeanValue = 0.0;
    double sampleVarianceValue = 0.0;
    std::uint64_t count = 0;
};

} // namespace bighouse

#endif // BIGHOUSE_DISTRIBUTION_EMPIRICAL_HH
