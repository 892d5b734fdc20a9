#include "stats/histogram.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "base/strings.hh"

namespace bighouse {

namespace {

/// Serialization tag; it names the sub-bin count, so a histogram binned
/// at another resolution never deserializes into this one.
const std::string kFormatTag =
    "loglinear" + std::to_string(Histogram::kSubBins);

#ifdef BIGHOUSE_AUDIT
/** Audit helper: bin counts plus zeros must reconcile with the total. */
std::uint64_t
reconcileTotal(const std::vector<std::uint64_t>& counts, std::uint64_t zeros)
{
    std::uint64_t sum = zeros;
    for (std::uint64_t c : counts)
        sum += c;
    return sum;
}
#endif

/** [first, last) of the nonzero counts; first == last when none. */
std::pair<std::size_t, std::size_t>
occupied(const std::vector<std::uint64_t>& counts)
{
    std::size_t first = 0;
    std::size_t last = counts.size();
    while (first < last && counts[first] == 0)
        ++first;
    while (last > first && counts[last - 1] == 0)
        --last;
    return {first, last};
}

[[noreturn]] void
malformed(const std::string& text, const std::string& why)
{
    fatal("malformed Histogram serialization (", why, "): '",
          text.size() > 120 ? text.substr(0, 120) + "..." : text, "'");
}

template <typename T>
T
parseToken(const std::string& token, const std::string& text)
{
    T value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end)
        malformed(text, "bad number");
    return value;
}

} // namespace

void
Histogram::addOutsideRange(std::uint64_t key)
{
    cover(key, key);
    ++counts[key - firstKey];
}

void
Histogram::cover(std::uint64_t lo, std::uint64_t hi)
{
    if (counts.empty()) {
        firstKey = lo;
        counts.assign(hi - lo + 1, 0);
        return;
    }
    const std::uint64_t last = firstKey + counts.size() - 1;
    if (lo >= firstKey && hi <= last)
        return;
    // Pad the side that grows (up to one octave) so a stream creeping
    // outward bin by bin does not copy the array once per bin.
    const std::uint64_t pad =
        std::min<std::uint64_t>(counts.size(), kSubBins);
    const std::uint64_t newFirst =
        lo >= firstKey ? firstKey : (lo > pad ? lo - pad : 0);
    const std::uint64_t newLast =
        hi <= last ? last : std::min(hi + pad, kMaxKey);
    std::vector<std::uint64_t> grown(newLast - newFirst + 1, 0);
    std::copy(counts.begin(), counts.end(),
              grown.begin()
                  + static_cast<std::ptrdiff_t>(firstKey - newFirst));
    counts = std::move(grown);
    firstKey = newFirst;
}

void
Histogram::binRange(std::size_t i, double& lo, double& hi) const
{
    lo = std::max(edgeOf(firstKey + i), minValue);
    hi = std::min(edgeOf(firstKey + i + 1), maxValue);
}

double
Histogram::quantile(double q) const
{
    BH_REQUIRE(total > 0, "quantile of an empty histogram");
    BH_REQUIRE(q >= 0.0 && q <= 1.0, "quantile needs q in [0,1]");
    if (q == 0.0)
        return minValue;
    if (q == 1.0)
        return maxValue;

    const double target = q * static_cast<double>(total);
    double cumulative = static_cast<double>(zeros);
    if (target <= cumulative)
        return 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const auto mass = static_cast<double>(counts[i]);
        if (target <= cumulative + mass) {
            double lo = 0.0, hi = 0.0;
            binRange(i, lo, hi);
            return lo + (target - cumulative) / mass * (hi - lo);
        }
        cumulative += mass;
    }
    return maxValue;
}

double
Histogram::cdfAt(double x) const
{
    if (total == 0 || x < minValue)
        return 0.0;
    if (x >= maxValue)
        return 1.0;

    // Here minValue <= x < maxValue, so x >= 0 and some bin is occupied.
    double below = static_cast<double>(zeros);
    if (x > 0.0) {
        const std::uint64_t key = keyOf(x);
        const std::uint64_t end = firstKey + counts.size();
        const std::uint64_t full =
            std::clamp(key, firstKey, end) - firstKey;
        for (std::uint64_t i = 0; i < full; ++i)
            below += static_cast<double>(counts[i]);
        if (key >= firstKey && key < end) {
            // x lies in [lo, hi) of its bin, and hi > lo after clamping.
            double lo = 0.0, hi = 0.0;
            binRange(full, lo, hi);
            below +=
                static_cast<double>(counts[full]) * (x - lo) / (hi - lo);
        }
    }
    return below / static_cast<double>(total);
}

void
Histogram::merge(const Histogram& other)
{
    if (other.total == 0)
        return;
    const std::uint64_t before = total;
    const auto [first, last] = occupied(other.counts);
    if (first < last) {
        cover(other.firstKey + first, other.firstKey + last - 1);
        const std::uint64_t offset = other.firstKey - firstKey;
        for (std::size_t i = first; i < last; ++i)
            counts[offset + i] += other.counts[i];
    }
    zeros += other.zeros;
    total += other.total;
    minValue = std::min(minValue, other.minValue);
    maxValue = std::max(maxValue, other.maxValue);
    BH_ENSURE(total >= before && total >= other.total,
              "merged observation count wrapped: ", before, " + ",
              other.total, " -> ", total);
    BH_ENSURE(minValue <= maxValue, "merged extremes inverted: min=",
              minValue, " max=", maxValue);
    BH_AUDIT(reconcileTotal(counts, zeros) == total,
             "bin counts do not reconcile with total after merge");
}

std::string
Histogram::serialize() const
{
    std::ostringstream oss;
    oss.precision(17);
    // iostreams cannot parse "inf"; encode the empty-histogram sentinels
    // as zeros and restore them on load.
    const double minOut = total == 0 ? 0.0 : minValue;
    const double maxOut = total == 0 ? 0.0 : maxValue;
    const auto [first, last] = occupied(counts);
    oss << kFormatTag << " " << total << " " << zeros << " " << minOut
        << " " << maxOut << " " << (first < last ? firstKey + first : 0)
        << " " << last - first;
    for (std::size_t i = first; i < last; ++i)
        oss << " " << counts[i];
    return oss.str();
}

Histogram
Histogram::deserialize(const std::string& text)
{
    const std::vector<std::string> tokens = splitWhitespace(text);
    if (tokens.size() < 7 || tokens[0] != kFormatTag)
        malformed(text, "expected '" + kFormatTag + "' and six fields");
    Histogram hist;
    hist.total = parseToken<std::uint64_t>(tokens[1], text);
    hist.zeros = parseToken<std::uint64_t>(tokens[2], text);
    const auto minIn = parseToken<double>(tokens[3], text);
    const auto maxIn = parseToken<double>(tokens[4], text);
    const auto firstKey = parseToken<std::uint64_t>(tokens[5], text);
    const auto bins = parseToken<std::uint64_t>(tokens[6], text);
    if (tokens.size() - 7 != bins)
        malformed(text, "bin count does not match the counts given");
    if (!std::isfinite(minIn) || !std::isfinite(maxIn) || minIn < 0.0
        || minIn > maxIn)
        malformed(text, "extremes must be finite with 0 <= min <= max");
    if (bins > 0 && (firstKey > kMaxKey || bins - 1 > kMaxKey - firstKey))
        malformed(text, "bin keys out of range");

    if (hist.zeros > hist.total)
        malformed(text, "zeros exceed the total");
    std::uint64_t sum = hist.zeros;
    hist.firstKey = firstKey;
    hist.counts.reserve(static_cast<std::size_t>(bins));
    for (std::size_t i = 7; i < tokens.size(); ++i) {
        const auto c = parseToken<std::uint64_t>(tokens[i], text);
        if (c > hist.total - sum)
            malformed(text, "counts exceed the total");
        sum += c;
        hist.counts.push_back(c);
    }
    if (sum != hist.total)
        malformed(text, "counts do not sum to the total");
    if (hist.total > 0) {
        hist.minValue = minIn;
        hist.maxValue = maxIn;
    } else if (minIn != 0.0 || maxIn != 0.0) {
        malformed(text, "an empty histogram has extremes");
    }
    return hist;
}

} // namespace bighouse
