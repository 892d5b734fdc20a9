/**
 * @file
 * Deterministic pseudo-random number generation for BigHouse.
 *
 * Every stochastic component of a simulation (each arrival source, each
 * service-time draw, each parallel slave) owns an independent Rng stream.
 * Streams are derived deterministically from a root seed via SplitMix64,
 * which is the scheme the paper's master/slave parallelization depends on
 * ("each slave must use a unique seed for their random number generator").
 *
 * The core generator is xoshiro256++, a fast, high-quality 256-bit-state
 * generator suitable for the billions of draws a converged SQS run makes.
 * Raw outputs are generated a block at a time into a small per-stream
 * buffer: the state-update recurrence then pipelines across iterations in
 * one tight refill loop instead of being re-entered draw by draw, and the
 * common-case next() inlines to a load and an increment. Batching is
 * invisible to callers — the draw sequence is exactly the unbatched one,
 * so all golden results hold.
 */

#ifndef BIGHOUSE_BASE_RANDOM_HH
#define BIGHOUSE_BASE_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "base/logging.hh"

namespace bighouse {

/**
 * SplitMix64 stream: used only to expand seeds into generator state and to
 * derive child stream seeds. Not used for simulation draws directly.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit output. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256++ pseudo-random generator with deterministic stream
 * splitting. Satisfies UniformRandomBitGenerator.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Raw outputs generated per buffer refill. */
    static constexpr std::size_t kBlock = 64;

    /** Construct from a 64-bit seed, expanded through SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x8c0fe9a1d2b347c5ULL);

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        if (blockPos == kBlock) [[unlikely]]
            refill();
        return block[blockPos++];
    }

    std::uint64_t operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<std::uint64_t>::max();
    }

    /** Uniform double in the open interval (0, 1). Never returns 0 or 1. */
    double
    uniform01()
    {
        // 53 random mantissa bits; half an ulp keeps the result in (0, 1).
        return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint64_t below(std::uint64_t bound);

    /** Standard normal draw (Marsaglia polar method). */
    double gaussian();

    /** Exponential draw with the given rate (inverse transform). */
    double
    exponential(double rate)
    {
        BH_ASSERT(rate > 0, "exponential rate must be positive");
        return -std::log(uniform01()) / rate;
    }

    /** Bernoulli draw with success probability p. */
    bool bernoulli(double p) { return uniform01() < p; }

    /**
     * Derive an independent child stream. Children of distinct calls, and
     * children vs. the parent, are statistically independent streams.
     */
    Rng split();

  private:
    /** Run the xoshiro recurrence kBlock times into the buffer. */
    void refill();

    std::array<std::uint64_t, 4> s;
    /// Cached second output of the polar method, NaN when absent.
    double pendingGaussian;
    /// Next unconsumed buffer index; kBlock means "buffer exhausted".
    std::uint32_t blockPos = kBlock;
    /// Pre-generated raw outputs, consumed in generation order.
    std::array<std::uint64_t, kBlock> block;
};

} // namespace bighouse

#endif // BIGHOUSE_BASE_RANDOM_HH
