/**
 * @file
 * Portable scalar backend: the plain C++ kernels every build compiles.
 *
 * These are the reference implementations — the GEMM strip kernel is
 * the plain loop nest over the packed layout, and the quantize sweeps
 * run the codec's grid arithmetic (quant/codec.cpp) with every format
 * constant hoisted into the QuantGrid. tests/test_simd.cpp holds both
 * backends to the codec and the AVX2 backend to these outputs.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "quant/codec.h"
#include "simd/kernels.h"
#include "util/rng.h"

namespace snip {
namespace simd {

namespace {

// ------------------------------------------------------- grid snap

/** Float bits and back. */
inline uint32_t
floatBits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

inline float
bitsFloat(uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

/**
 * One value of the grid snap both quantize sweeps share, bit-exact
 * against the codec with every format constant read from @p g. A
 * finite, nonzero |x| below max_value is split into its grid index q
 * and the grid spacing ulp, both exact in float: in the normal range q
 * is |x|'s mantissa retagged with exponent mantissa_bits and the ulp
 * comes from |x|'s exponent bits; below min_normal q is a power-of-two
 * rescale and the ulp is min_subnormal. Since q < 2^(mantissa_bits +
 * 1), the integer conversion floor(q) and frac = q - floor(q) are
 * exact too. @p round_up(frac, lo) picks the upper neighbour and runs
 * only for those eligible values; zero gives +0, NaN -max and ±Inf or
 * saturated values ±max. The eligible path selects with integer ops,
 * not branches: which side of min_normal a value falls on, its sign
 * and its rounding are coin flips on real data.
 */
template <typename RoundUp>
inline float
snapOne(float x, const QuantGrid &g, RoundUp &&round_up)
{
    if (x == 0.0f)
        return 0.0f;
    const uint32_t xb = floatBits(x);
    const uint32_t bits = xb & 0x7FFFFFFFu;
    const float ax = bitsFloat(bits);
    if (!(ax < g.max_value))
        return x > 0.0f ? g.max_value : -g.max_value;
    const uint32_t sub = 0u - static_cast<uint32_t>(ax < g.min_normal);
    const uint32_t q_norm =
        (bits & 0x007FFFFFu) |
        (static_cast<uint32_t>(127 + g.mantissa_bits) << 23);
    const uint32_t q_sub =
        floatBits(ax * g.inv_min_sub_hi * g.inv_min_sub_lo);
    const uint32_t ulp_norm =
        floatBits(bitsFloat(bits & 0x7F800000u) * g.two_pow_neg_mant);
    const float q = bitsFloat((q_sub & sub) | (q_norm & ~sub));
    const float ulp =
        bitsFloat((floatBits(g.min_subnormal) & sub) | (ulp_norm & ~sub));
    const int32_t lo = static_cast<int32_t>(q);
    const float frac = q - static_cast<float>(lo);
    const int32_t idx = lo + static_cast<int32_t>(round_up(frac, lo));
    const float r = std::min(static_cast<float>(idx) * ulp, g.max_value);
    return bitsFloat(floatBits(r) | (xb & 0x80000000u));
}

/** Round-to-nearest, ties to the even grid index. */
inline float
snapNearest(float x, const QuantGrid &g)
{
    return snapOne(x, g, [](float frac, int32_t lo) {
        return (frac > 0.5f) | ((frac == 0.5f) & ((lo & 1) != 0));
    });
}

// ------------------------------------------------------------ packing

/** Quantize one value during a pack; identity when @p pq is null.
 *  (sr, sc) are SOURCE-matrix coordinates for the region lookup. */
inline float
packQuantOne(float x, const PackQuant *pq, int64_t sr, int64_t sc)
{
    if (pq == nullptr)
        return x;
    const int64_t reg = pq->regions.index(sr, sc);
    return snapNearest(x * pq->scale[reg], *pq->grid) *
           pq->inv_scale[reg];
}

void
packAScalar(const float *src, int64_t ld, bool k_major, float *ap,
            int64_t i0, int64_t i1, int64_t k, const PackQuant *pq)
{
    const int64_t mb = i1 - i0;
    const int64_t strips = packStrips(mb, kGemmPackMR);
    for (int64_t s = 0; s < strips; ++s) {
        float *dst = ap + s * kGemmPackMR * k;
        const int64_t rows = std::min(kGemmPackMR, mb - s * kGemmPackMR);
        for (int64_t r = 0; r < kGemmPackMR; ++r) {
            if (r >= rows) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = 0.0f;
                continue;
            }
            const int64_t i = i0 + s * kGemmPackMR + r;
            if (k_major) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] =
                        packQuantOne(src[kk * ld + i], pq, kk, i);
            } else {
                const float *row = src + i * ld;
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] =
                        packQuantOne(row[kk], pq, i, kk);
            }
        }
    }
}

void
packBScalar(const float *src, int64_t ld, bool k_major, float *bp,
            int64_t j0, int64_t j1, int64_t n, int64_t k,
            const PackQuant *pq)
{
    for (int64_t s0 = j0; s0 < j1; s0 += kGemmPackNR) {
        float *dst = bp + (s0 / kGemmPackNR) * kGemmPackNR * k;
        const int64_t cols = std::min(kGemmPackNR, n - s0);
        for (int64_t r = 0; r < kGemmPackNR; ++r) {
            if (r >= cols) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] = 0.0f;
                continue;
            }
            const int64_t j = s0 + r;
            if (k_major) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] =
                        packQuantOne(src[kk * ld + j], pq, kk, j);
            } else {
                const float *row = src + j * ld;
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] =
                        packQuantOne(row[kk], pq, j, kk);
            }
        }
    }
}

void
gemmStripScalar(const float *a, int64_t a_rs, int64_t a_ks,
                const float *bp, float *c, int64_t ldc, int64_t mr,
                int64_t n, int64_t k)
{
    const int64_t n_strips = packStrips(n, kGemmPackNR);
    for (int64_t js = 0; js < n_strips; ++js) {
        const float *bs = bp + js * kGemmPackNR * k;
        const int64_t j0 = js * kGemmPackNR;
        const int64_t jn = std::min(kGemmPackNR, n - j0);
        // Per C element the sum runs over k ascending — the fixed
        // accumulation order of the strip contract.
        float acc[kGemmPackMR][kGemmPackNR] = {};
        for (int64_t kk = 0; kk < k; ++kk) {
            const float *bv = bs + kk * kGemmPackNR;
            for (int64_t r = 0; r < mr; ++r) {
                const float av = a[r * a_rs + kk * a_ks];
                for (int64_t j = 0; j < kGemmPackNR; ++j)
                    acc[r][j] += av * bv[j];
            }
        }
        for (int64_t r = 0; r < mr; ++r) {
            float *crow = c + r * ldc + j0;
            for (int64_t j = 0; j < jn; ++j)
                crow[j] += acc[r][j];
        }
    }
}

void
quantizeNearestScalar(float *p, int64_t count, const FloatFormat & /*fmt*/,
                      const QuantGrid &grid, float scale, float inv_scale)
{
    for (int64_t i = 0; i < count; ++i)
        p[i] = snapNearest(p[i] * scale, grid) * inv_scale;
}

void
quantizeStochasticScalar(float *p, int64_t count, const QuantGrid &grid,
                         float scale, float inv_scale, Rng &rng)
{
    // nextDouble() < frac is the codec's test; snapOne draws only for
    // eligible values, in index order.
    for (int64_t i = 0; i < count; ++i)
        p[i] = snapOne(p[i] * scale, grid,
                       [&rng](float frac, int32_t) {
                           return rng.nextDouble() < frac;
                       }) *
               inv_scale;
}

void
bf16RoundScalar(float *p, int64_t count)
{
    for (int64_t i = 0; i < count; ++i) {
        uint32_t u;
        std::memcpy(&u, &p[i], sizeof(u));
        u += 0x7FFFu + ((u >> 16) & 1u);
        u &= 0xFFFF0000u;
        std::memcpy(&p[i], &u, sizeof(u));
    }
}

float
maxAbsScalar(const float *p, int64_t count)
{
    float max_abs = 0.0f;
    for (int64_t i = 0; i < count; ++i)
        max_abs = std::max(max_abs, std::fabs(p[i]));
    return max_abs;
}

void
errorStatsScalar(const float *ref, const float *q, int64_t count,
                 double *sum_sq, double *max_err)
{
    double acc = 0.0;
    double max_e = 0.0;
    for (int64_t i = 0; i < count; ++i) {
        double d = static_cast<double>(q[i]) - ref[i];
        acc += d * d;
        max_e = std::max(max_e, std::fabs(d));
    }
    *sum_sq = acc;
    *max_err = max_e;
}

double
sumSquaresScalar(const float *p, int64_t count)
{
    double acc = 0.0;
    for (int64_t i = 0; i < count; ++i)
        acc += static_cast<double>(p[i]) * p[i];
    return acc;
}

void
attnSoftmaxFwdScalar(float *prob, int64_t seq, float scale)
{
    // The reference semantics every backend must reproduce bit for
    // bit: scale + running max over the causal prefix, scalar exp,
    // double row-sum, float normalize, exact zeros above the diagonal.
    for (int64_t i = 0; i < seq; ++i) {
        float *row = prob + i * seq;
        float maxv = -1e30f;
        for (int64_t j = 0; j <= i; ++j) {
            row[j] *= scale;
            maxv = std::max(maxv, row[j]);
        }
        double denom = 0.0;
        for (int64_t j = 0; j <= i; ++j) {
            row[j] = std::exp(row[j] - maxv);
            denom += row[j];
        }
        const float inv = static_cast<float>(1.0 / std::max(denom, 1e-30));
        for (int64_t j = 0; j <= i; ++j)
            row[j] *= inv;
        for (int64_t j = i + 1; j < seq; ++j)
            row[j] = 0.0f;
    }
}

void
attnSoftmaxBwdScalar(const float *prob, const float *dp, float *ds,
                     int64_t seq, float scale)
{
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        double dot = 0.0;
        for (int64_t j = 0; j <= i; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        for (int64_t j = 0; j < seq; ++j) {
            dsrow[j] =
                j <= i
                    ? prow[j] * (dprow[j] - static_cast<float>(dot)) *
                          scale
                    : 0.0f;
        }
    }
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        "scalar",
        packAScalar,
        packBScalar,
        gemmStripScalar,
        quantizeNearestScalar,
        quantizeStochasticScalar,
        bf16RoundScalar,
        maxAbsScalar,
        errorStatsScalar,
        sumSquaresScalar,
        attnSoftmaxFwdScalar,
        attnSoftmaxBwdScalar,
    };
    return table;
}

} // namespace simd
} // namespace snip
