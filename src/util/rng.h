/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component of the library (data synthesis, weight init,
 * stochastic rounding, noise probes, random baselines) draws from an
 * explicitly seeded Rng so that experiments are bit-reproducible across
 * runs. The generator is xoshiro256**, seeded through SplitMix64, the
 * standard recommendation of its authors.
 */
#ifndef SNIP_UTIL_RNG_H
#define SNIP_UTIL_RNG_H

#include <array>
#include <cstdint>

namespace snip {

/**
 * Deterministic pseudo-random generator (xoshiro256**).
 *
 * Cheap to copy; copies continue the same stream independently. Use
 * split() to derive decorrelated child streams for sub-components.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    uint64_t nextU64();

    /** Uniform in [0, 1). */
    double nextDouble();

    /** @p n uniforms in [0, 1) into @p out: the same values, and the
     *  same stream position after, as @p n nextDouble() calls. */
    void nextDoubles(double *out, int n);

    /** Uniform float in [0, 1). */
    float nextFloat();

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t nextBelow(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller (no state besides the stream). */
    double nextGaussian();

    /** Gaussian with given mean and standard deviation. */
    double nextGaussian(double mean, double stddev);

    /** Bernoulli draw with probability p of returning true. */
    bool nextBernoulli(double p);

    /** Derive an independent child generator (hash-mixed). */
    Rng split();

    /** Opaque 256-bit stream position, for checkpointing: restoring a
     *  captured state replays the exact draw sequence (stochastic
     *  rounding, probe noise) a resumed run would have seen. */
    std::array<uint64_t, 4> state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }
    void setState(const std::array<uint64_t, 4> &state)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = state[static_cast<std::size_t>(i)];
    }

  private:
    uint64_t s_[4];
};

} // namespace snip

#endif // SNIP_UTIL_RNG_H
