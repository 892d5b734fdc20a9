/**
 * @file
 * Space-efficient online quantile estimation with a log-linear histogram.
 *
 * The paper (after Chen & Kelton 2001) represents each output metric by
 * a fine-grained histogram instead of the raw sample. Chen & Kelton fix
 * the bin edges from a calibration sample; here the edges depend on no
 * data at all, as in HDR Histogram and DDSketch (Masson, Rim & Lee,
 * VLDB 2019): a bin is the exponent of the IEEE-754 value plus its top
 * kSubBinBits mantissa bits, so every power of two splits into kSubBins
 * equal bins and a bin's width is at most 2^-kSubBinBits of its lower
 * edge. No calibration sample, no layout to agree on: any two histograms
 * merge by adding counts.
 *
 * Observations must be finite and >= 0 (every metric in the tree is a
 * time, level, power reading, fraction or indicator); exact zeros get
 * their own count, so a 0/1 indicator occupies one bin.
 */

#ifndef BIGHOUSE_STATS_HISTOGRAM_HH
#define BIGHOUSE_STATS_HISTOGRAM_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/contracts.hh"

namespace bighouse {

/** Log-linear counting histogram with interpolated quantiles. */
class Histogram
{
  public:
    /// Mantissa bits below the exponent that select a sub-bin.
    static constexpr int kSubBinBits = 8;
    /// Bins per power of two; also the relative-width bound 1/kSubBins.
    static constexpr std::uint64_t kSubBins = std::uint64_t{1}
                                              << kSubBinBits;

    /** An empty histogram; allocates nothing until the first add(). */
    Histogram() = default;

    /**
     * Record one observation. Inline: this sits on the per-accepted-
     * observation hot path of every output metric. Bins are stored
     * densely over the occupied key range, so the common case is one
     * subtraction, one compare and one increment.
     * @pre x is finite and >= 0
     */
    void
    add(double x)
    {
        BH_REQUIRE(x >= 0.0 && x - x == 0.0,
                   "observation must be finite and >= 0, got ", x);
        ++total;
        if (x < minValue)
            minValue = x;
        if (x > maxValue)
            maxValue = x;
        if (x == 0.0) {
            ++zeros;
            return;
        }
        const std::uint64_t key = keyOf(x);
        const std::uint64_t i = key - firstKey;  // wraps below the range
        if (i < counts.size()) [[likely]]
            ++counts[i];
        else
            addOutsideRange(key);
    }

    /** Total recorded observations. */
    std::uint64_t count() const { return total; }

    /**
     * Interpolated q-quantile (q in [0,1]): zeros are a point mass at 0,
     * and mass is spread uniformly inside each bin, whose edges are
     * clamped to the exact observed [min, max].
     * @pre count() > 0
     */
    double quantile(double q) const;

    /**
     * Empirical CDF at x — the fraction of observations <= x under the
     * same piecewise-uniform model quantile() inverts. The backend
     * agreement tests compute Kolmogorov-Smirnov distances through this.
     * Returns 0 on an empty histogram.
     */
    double cdfAt(double x) const;

    /** Smallest / largest recorded value. */
    double observedMin() const { return minValue; }
    double observedMax() const { return maxValue; }

    /** Bins currently allocated (the dense key range, zeros excluded). */
    std::size_t binCount() const { return counts.size(); }

    /** Accumulate another histogram's counts (the Fig. 3 "merge" step). */
    void merge(const Histogram& other);

    /**
     * Serialize to one line: a format tag naming the sub-bin count, the
     * totals and extremes, then the occupied key range's counts.
     */
    std::string serialize() const;

    /**
     * Inverse of serialize(). Strict: fatal() on another tag, trailing
     * data, non-finite or negative extremes, keys out of range, or
     * counts that do not sum to the total.
     */
    static Histogram deserialize(const std::string& text);

  private:
    /// Mantissa bits dropped from the IEEE-754 pattern to form a key.
    static constexpr int kKeyShift = 52 - kSubBinBits;
    /// Key of the largest finite double: the top of the key space.
    static constexpr std::uint64_t kMaxKey =
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max())
        >> kKeyShift;

    /** Bin key of a positive finite value: exponent + top mantissa bits. */
    static std::uint64_t
    keyOf(double x)
    {
        return std::bit_cast<std::uint64_t>(x) >> kKeyShift;
    }

    /** Lower edge of a key's bin (the upper edge is the next key's). */
    static double
    edgeOf(std::uint64_t key)
    {
        return std::bit_cast<double>(key << kKeyShift);
    }

    /** Grow the dense range to cover `key`, then count it (cold path). */
    void addOutsideRange(std::uint64_t key);
    /** Grow the dense range to cover keys [lo, hi]. */
    void cover(std::uint64_t lo, std::uint64_t hi);
    /** Bin i's edges clamped to [minValue, maxValue]. */
    void binRange(std::size_t i, double& lo, double& hi) const;

    /// Key of counts[0]; counts[i] holds key firstKey + i.
    std::uint64_t firstKey = 0;
    std::vector<std::uint64_t> counts;
    std::uint64_t zeros = 0;
    std::uint64_t total = 0;
    double minValue = std::numeric_limits<double>::infinity();
    double maxValue = -std::numeric_limits<double>::infinity();
};

} // namespace bighouse

#endif // BIGHOUSE_STATS_HISTOGRAM_HH
