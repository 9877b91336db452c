/**
 * @file
 * Portable kernel-backend interface for the three hot paths.
 *
 * A KernelTable bundles the architecture-specific inner kernels the
 * library dispatches at runtime (simd/dispatch.h): the GEMM operand
 * packs and register-tiled strip microkernel, the nearest and
 * stochastic grid-snap sweeps, and the error-metric reductions. Every
 * GEMM runs the one packed microkernel, and each backend fixes its
 * per-element accumulation order (k ascending), so each backend keeps
 * the guarantee that results are bit-identical for any thread count —
 * and that a row of C never depends on which other rows share the
 * call.
 * Different backends may legitimately differ in low-order bits of GEMM
 * and sum-of-squares results (FMA contraction, vector-lane
 * accumulation order); the quantize, bf16-round and max-abs kernels
 * are required to agree bit-for-bit across backends (and the
 * stochastic sweep to leave the same Rng state).
 * tests/test_simd.cpp enforces both contracts.
 */
#ifndef SNIP_SIMD_KERNELS_H
#define SNIP_SIMD_KERNELS_H

#include <cstdint>

#include "quant/codec.h"
#include "quant/scaling.h"

namespace snip {
namespace simd {

/// GEMM M-block height: the parallelFor unit in tensor/gemm.cpp.
/// Workers own whole rows of C, so the decomposition — and therefore
/// each backend's accumulation order — never depends on thread count.
constexpr int64_t kGemmBlockM = 64;

/// Register-tile edges, shared by every backend: packed A panels hold
/// kGemmPackMR-row strips, packed B panels kGemmPackNR-column strips
/// (6 x 16 is the classic AVX2+FMA sweet spot — twelve 8-lane
/// accumulators).
constexpr int64_t kGemmPackMR = 6;
constexpr int64_t kGemmPackNR = 16;

/// Strip count of a packed dimension (panels are zero-padded to whole
/// strips).
constexpr int64_t
packStrips(int64_t extent, int64_t strip)
{
    return (extent + strip - 1) / strip;
}

/// Offset of logical B element (kk, j) in a packed B panel of depth
/// @p k: column j sits in strip j / kGemmPackNR, lane j % kGemmPackNR
/// (the PackBFn layout below). Callers that build a panel straight
/// from their own storage (the paged KV cache) write through this.
constexpr int64_t
packedBOffset(int64_t kk, int64_t j, int64_t k)
{
    return (j / kGemmPackNR) * kGemmPackNR * k + kk * kGemmPackNR +
           j % kGemmPackNR;
}

/**
 * Fused quantize-on-pack parameters: the grid-snap (nearest-rounding)
 * quantizer applied to every element as it is copied into a packed
 * panel, so no quantized tensor copy is ever materialized. Scales are
 * per scaling region of the SOURCE matrix: source element (r, c) takes
 * scale[regions.index(r, c)], and the caller fills scale[] /
 * inv_scale[] with computeRegionScales() (quant/scaling.h) — the
 * materializing quantizer's own recipe and region order — so fused and
 * materialized results are bit-identical (both backends' grid snap
 * already is). Stochastic rounding is NOT fusable (its RNG stream
 * consumes draws in row-major region order); callers materialize those
 * operands first.
 */
struct PackQuant
{
    const FloatFormat *fmt = nullptr;
    const QuantGrid *grid = nullptr;
    const float *scale = nullptr;
    const float *inv_scale = nullptr;
    RegionGrid regions;
};

/**
 * In-place nearest-rounding fake quantization of @p count values:
 * p[i] = quantizeNearest(p[i] * scale, fmt) * inv_scale.
 * Must match the scalar codec (quant/codec.h) bit for bit. @p grid is
 * quantGrid(fmt), hoisted by the caller so per-span calls (one per
 * row segment of a scaling region, as few as 128 elements) don't pay
 * the constant setup.
 */
using QuantizeNearestFn = void (*)(float *p, int64_t count,
                                   const FloatFormat &fmt,
                                   const QuantGrid &grid, float scale,
                                   float inv_scale);

/**
 * In-place stochastic-rounding fake quantization of @p count values:
 * p[i] = quantizeStochastic(p[i] * scale, fmt, rng) * inv_scale, with
 * fmt the format @p grid describes. Must match that codec loop bit for
 * bit, draws included: one rng.nextDouble() per *eligible* element
 * (x = p[i] * scale finite, nonzero and |x| < max_value), in ascending
 * index order, and none for any other element (zero gives 0, NaN
 * -max, ±Inf and saturated values ±max). The draw sequence is part of
 * the determinism contract, so every backend leaves @p rng in the same
 * state.
 */
using QuantizeStochasticFn = void (*)(float *p, int64_t count,
                                      const QuantGrid &grid, float scale,
                                      float inv_scale, Rng &rng);

/** In-place bf16 round-to-nearest-even of @p count values (the
 *  tensorwise bf16 fast path; pure bit manipulation, exact). */
using Bf16RoundFn = void (*)(float *p, int64_t count);

/** Largest |p[i]| over @p count values; 0 for empty runs. NaN inputs
 *  are ignored (never returned), matching a scalar max-reduction. */
using MaxAbsFn = float (*)(const float *p, int64_t count);

/**
 * Error-metric reduction: *sum_sq = sum((q[i]-ref[i])^2) accumulated
 * in double, *max_err = max |q[i]-ref[i]|. max_err must be exact;
 * sum_sq may differ across backends in low-order bits.
 */
using ErrorStatsFn = void (*)(const float *ref, const float *q,
                              int64_t count, double *sum_sq,
                              double *max_err);

/**
 * Pack rows [i0, i1) of the logical GEMM A operand (M x K) into
 * kGemmPackMR-row strips:
 *     ap[s*MR*k + kk*MR + r] = A[i0 + s*MR + r, kk]
 * (zero for i0+s*MR+r >= i1). When @p k_major is false the source is
 * A itself, row-major [M, K] with leading dimension @p ld = K; when
 * true the source is the TN variant's A, row-major [K, M] with
 * @p ld = M, and the element is src[kk*ld + i]. @p pq (nullable)
 * applies fused quantize-on-pack; its region coordinates are SOURCE
 * coordinates ((i, kk) when !k_major, (kk, i) when k_major).
 *
 * Callers must size the destination with at least 8 floats of
 * headroom past the final strip: vectorized backends store transposed
 * 8-lane groups at stride kGemmPackMR, so the last store of the last
 * strip spills two lanes past the panel (every earlier spill is
 * overwritten by later in-panel stores).
 */
using PackAFn = void (*)(const float *src, int64_t ld, bool k_major,
                         float *ap, int64_t i0, int64_t i1, int64_t k,
                         const PackQuant *pq);

/**
 * Pack columns [j0, j1) of the logical GEMM B operand (K x N) into
 * kGemmPackNR-column strips:
 *     bp[s*NR*k + kk*NR + r] = B[kk, s*NR + r]
 * (zero for s*NR+r >= n; @p j0 must be strip-aligned — it is a
 * parallelFor boundary). When @p k_major the source is row-major
 * [K, N] with @p ld = N (the NN/TN B operand); otherwise it is
 * row-major [N, K] with @p ld = K (the NT B operand, e.g. weights) and
 * the element is src[j*ld + kk]. @p bp points at the panel base (strip
 * offsets are computed from j0). Region coordinates for @p pq are
 * SOURCE coordinates ((kk, j) when k_major, (j, kk) otherwise).
 */
using PackBFn = void (*)(const float *src, int64_t ld, bool k_major,
                         float *bp, int64_t j0, int64_t j1, int64_t n,
                         int64_t k, const PackQuant *pq);

/**
 * One A strip of a GEMM against a packed B panel: C[0..mr) x [0..n) at
 * @p c (leading dimension @p ldc) += A * Bp, for mr <= kGemmPackMR.
 * A element (r, kk) is a[r*a_rs + kk*a_ks]: a packed A strip
 * (a_rs = 1, a_ks = kGemmPackMR), or an operand read in place (a
 * row-major A has a_rs = ld, a_ks = 1; the TN variant's A has
 * a_rs = 1, a_ks = ld). Rows at or past @p mr are never read. Each C
 * element sums its k products in ascending k into an accumulator that
 * starts at zero and is then added to C — the same chain for every mr
 * and every A layout, so a row of C is bit-identical however many rows
 * share the strip.
 */
using GemmStripFn = void (*)(const float *a, int64_t a_rs, int64_t a_ks,
                             const float *bp, float *c, int64_t ldc,
                             int64_t mr, int64_t n, int64_t k);

/**
 * sum(p[i]^2) accumulated in double — the Frobenius-norm reduction the
 * stats collector and eval paths lean on (tensor/ops.cpp dispatches
 * here). Like sum_sq above, backends may differ in low-order bits.
 */
using SumSquaresFn = double (*)(const float *p, int64_t count);

/**
 * Fused scale + causal mask + rowwise softmax over one [seq, seq]
 * attention-score matrix, in place: for row i, entries j <= i are
 * scaled by @p scale, max-shifted, exponentiated and normalized by a
 * double-accumulated row sum; entries j > i become exactly 0.
 *
 * Contract: bit-exact across backends AND bit-exact against the
 * historical open-coded loop in nn/attention.cpp (the multiplies are
 * per-element IEEE ops, exp() and the row-sum accumulation stay
 * scalar). tests/test_simd.cpp enforces the agreement.
 */
using AttnSoftmaxFwdFn = void (*)(float *prob, int64_t seq, float scale);

/**
 * Softmax backward with the score scale folded in, one [seq, seq]
 * item: ds[i][j] = prob[i][j] * (dp[i][j] - rowdot(dp[i], prob[i]))
 * * scale for j <= i (rowdot over j <= i, accumulated in double),
 * 0 above the diagonal. @p ds may alias @p dp (each row's dot is
 * fully reduced before the row is overwritten). Same cross-backend
 * bit-exactness contract as AttnSoftmaxFwdFn.
 */
using AttnSoftmaxBwdFn = void (*)(const float *prob, const float *dp,
                                  float *ds, int64_t seq, float scale);

/** The dispatchable kernel set of one backend. */
struct KernelTable
{
    const char *name;
    PackAFn packA;         ///< strip-pack (+ fused quantize) A panels
    PackBFn packB;         ///< strip-pack (+ fused quantize) B panels
    GemmStripFn gemmStrip; ///< register-tiled A strip x packed B
    QuantizeNearestFn quantizeNearest;
    QuantizeStochasticFn quantizeStochastic;
    Bf16RoundFn bf16Round;
    MaxAbsFn maxAbs;
    ErrorStatsFn errorStats;
    SumSquaresFn sumSquares;
    AttnSoftmaxFwdFn attnSoftmaxFwd; ///< scale+mask+softmax, one item
    AttnSoftmaxBwdFn attnSoftmaxBwd; ///< softmax backward, one item
};

/** The portable plain-C++ backend (always available). */
const KernelTable &scalarKernels();

/** True when the AVX2+FMA backend was compiled in. */
bool avx2Compiled();

/** The AVX2+FMA backend; only valid to *call into* when
 *  dispatch.h's cpuSupportsAvx2() is true. */
const KernelTable &avx2Kernels();

} // namespace simd
} // namespace snip

#endif // SNIP_SIMD_KERNELS_H
