#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace snip {

namespace {

/** SplitMix64 step, used for seeding and stream splitting. */
uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::nextU64()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::nextDouble()
{
    return (nextU64() >> 11) * 0x1.0p-53;
}

void
Rng::nextDoubles(double *out, int n)
{
    for (int i = 0; i < n; ++i)
        out[i] = nextDouble();
}

float
Rng::nextFloat()
{
    return (nextU64() >> 40) * 0x1.0p-24f;
}

uint64_t
Rng::nextBelow(uint64_t n)
{
    SNIP_ASSERT(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -n % n;
    for (;;) {
        uint64_t r = nextU64();
        if (r >= threshold)
            return r % n;
    }
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    SNIP_ASSERT(lo <= hi);
    return lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::nextGaussian()
{
    // Box-Muller; draw u1 in (0,1] to avoid log(0).
    double u1 = 1.0 - nextDouble();
    double u2 = nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double
Rng::nextGaussian(double mean, double stddev)
{
    return mean + stddev * nextGaussian();
}

bool
Rng::nextBernoulli(double p)
{
    return nextDouble() < p;
}

Rng
Rng::split()
{
    uint64_t child_seed = nextU64() ^ 0xA5A5A5A55A5A5A5Aull;
    return Rng(child_seed);
}

} // namespace snip
