#include "base/random.hh"

namespace bighouse {

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : pendingGaussian(std::nan(""))
{
    SplitMix64 sm(seed);
    for (auto& word : s)
        word = sm.next();
    // An all-zero state is the one invalid xoshiro state; SplitMix64 cannot
    // produce four zero outputs in a row, but guard anyway.
    if (s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0)
        s[0] = 0x9e3779b97f4a7c15ULL;
}

void
Rng::refill()
{
    // Keep the four state words in locals so the compiler can software-
    // pipeline the recurrence across the whole block; outputs land in the
    // buffer in exactly the order the unbatched generator produced them.
    std::uint64_t s0 = s[0];
    std::uint64_t s1 = s[1];
    std::uint64_t s2 = s[2];
    std::uint64_t s3 = s[3];
    for (std::size_t i = 0; i < kBlock; ++i) {
        block[i] = rotl(s0 + s3, 23) + s0;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
    }
    s[0] = s0;
    s[1] = s1;
    s[2] = s2;
    s[3] = s3;
    blockPos = 0;
}

double
Rng::uniform(double lo, double hi)
{
    BH_ASSERT(lo <= hi, "uniform bounds inverted");
    return lo + (hi - lo) * uniform01();
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    BH_ASSERT(bound > 0, "below(0) is meaningless");
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::gaussian()
{
    if (!std::isnan(pendingGaussian)) {
        const double z = pendingGaussian;
        pendingGaussian = std::nan("");
        return z;
    }
    double u, v, r2;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        r2 = u * u + v * v;
    } while (r2 >= 1.0 || r2 == 0.0);
    const double mag = std::sqrt(-2.0 * std::log(r2) / r2);
    pendingGaussian = v * mag;
    return u * mag;
}

Rng
Rng::split()
{
    // Derive a child seed from two fresh draws; SplitMix64 expansion in the
    // child constructor decorrelates it from this stream's future output.
    const std::uint64_t childSeed = next() ^ rotl(next(), 32);
    return Rng(childSeed);
}

} // namespace bighouse
