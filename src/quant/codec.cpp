#include "quant/codec.h"

#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace snip {

const char *
roundingName(Rounding r)
{
    switch (r) {
        case Rounding::Nearest:
            return "nearest";
        case Rounding::Stochastic:
            return "stochastic";
    }
    return "?";
}

double
ulpAt(float x, const FloatFormat &fmt)
{
    double ax = std::fabs(static_cast<double>(x));
    double max_v = fmt.maxValue();
    if (ax > max_v)
        ax = max_v;
    double min_normal = fmt.minNormal();
    if (ax < min_normal)
        return fmt.minSubnormal();
    // frexp gives ax = m * 2^e with m in [0.5, 1), so the binade
    // exponent is e-1; exact and much faster than log2+floor.
    int e;
    std::frexp(ax, &e);
    return std::ldexp(1.0, (e - 1) - fmt.mantissa_bits);
}

QuantGrid
quantGrid(const FloatFormat &fmt)
{
    QuantGrid g;
    g.max_value = static_cast<float>(fmt.maxValue());
    g.min_normal = static_cast<float>(fmt.minNormal());
    g.min_subnormal = static_cast<float>(fmt.minSubnormal());
    // 1/minSubnormal = 2^(bias + mantissa_bits - 1); split into two
    // factors so each stays a normal float even for bf16 (2^133).
    int t = fmt.bias + fmt.mantissa_bits - 1;
    int hi = t / 2;
    g.inv_min_sub_hi = std::ldexp(1.0f, hi);
    g.inv_min_sub_lo = std::ldexp(1.0f, t - hi);
    g.two_pow_neg_mant = std::ldexp(1.0f, -fmt.mantissa_bits);
    g.mantissa_bits = fmt.mantissa_bits;
    return g;
}

namespace {

/**
 * Common quantization path: clamp, express x as (grid index) * ulp, round
 * the index by the chosen rule, return index * ulp with the sign
 * restored.
 */
float
quantizeImpl(float x, const FloatFormat &fmt, Rounding mode, Rng *rng)
{
    if (x == 0.0f || !std::isfinite(x))
        return std::isfinite(x) ? 0.0f : (x > 0 ? 1.0f : -1.0f) *
                                             static_cast<float>(
                                                 fmt.maxValue());
    double ax = std::fabs(static_cast<double>(x));
    double max_v = fmt.maxValue();
    bool saturated = false;
    if (ax >= max_v) {
        ax = max_v;
        saturated = true;
    }
    double sign = x < 0 ? -1.0 : 1.0;
    if (saturated)
        return static_cast<float>(sign * max_v);

    double ulp = ulpAt(static_cast<float>(ax), fmt);
    double q = ax / ulp;
    double lo = std::floor(q);
    double frac = q - lo;
    double rounded;
    if (mode == Rounding::Stochastic) {
        SNIP_ASSERT(rng != nullptr, "stochastic rounding needs an Rng");
        rounded = lo + (rng->nextDouble() < frac ? 1.0 : 0.0);
    } else {
        if (frac > 0.5) {
            rounded = lo + 1.0;
        } else if (frac < 0.5) {
            rounded = lo;
        } else {
            // Ties to even grid index.
            rounded = (static_cast<int64_t>(lo) % 2 == 0) ? lo : lo + 1.0;
        }
    }
    double result = rounded * ulp;
    // Rounding up across a binade boundary lands exactly on the next
    // power of two, which is itself on the grid, so no fixup is needed;
    // only the very top can exceed max.
    if (result > max_v)
        result = max_v;
    return static_cast<float>(sign * result);
}

} // namespace

float
quantizeNearest(float x, const FloatFormat &fmt)
{
    return quantizeImpl(x, fmt, Rounding::Nearest, nullptr);
}

float
quantizeStochastic(float x, const FloatFormat &fmt, Rng &rng)
{
    return quantizeImpl(x, fmt, Rounding::Stochastic, &rng);
}

} // namespace snip
