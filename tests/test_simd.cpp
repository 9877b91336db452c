/**
 * @file
 * SIMD backend dispatch and scalar-vs-AVX2 agreement.
 *
 * Contracts under test (simd/kernels.h):
 *   - SNIP_SIMD forces a backend and activeBackendName() reports it;
 *   - quantize / bf16-round / max-abs agree bit for bit across
 *     backends (asserted exactly, which is stronger than the 1-ULP
 *     requirement);
 *   - GEMM agrees across backends within a relative-error bound and
 *     is bit-identical across 1/2/8 threads within each backend.
 * AVX2 comparisons skip with a message on hosts without AVX2+FMA.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "quant/codec.h"
#include "quant/error_metrics.h"
#include "quant/quantizer.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "util/rng.h"

namespace snip {
namespace {

/** Restores the pre-test SNIP_SIMD value (and the dispatch decision
 *  derived from it) when a test ends, so an externally forced backend
 *  — e.g. CI's `SNIP_SIMD=scalar ctest -L simd` — stays forced for
 *  the tests that follow. */
struct BackendGuard
{
    BackendGuard()
    {
        const char *v = std::getenv("SNIP_SIMD");
        had_value_ = v != nullptr;
        if (had_value_)
            saved_ = v;
    }
    BackendGuard(const BackendGuard &) = delete;
    BackendGuard &operator=(const BackendGuard &) = delete;
    ~BackendGuard()
    {
        if (had_value_)
            setenv("SNIP_SIMD", saved_.c_str(), 1);
        else
            unsetenv("SNIP_SIMD");
        simd::reinitFromEnv();
    }

  private:
    bool had_value_ = false;
    std::string saved_;
};

#define SKIP_WITHOUT_AVX2()                                               \
    do {                                                                  \
        if (!simd::cpuSupportsAvx2())                                     \
            GTEST_SKIP() << "AVX2+FMA not available on this host/build"; \
    } while (0)

TEST(SimdDispatch, EnvForcesScalar)
{
    BackendGuard guard;
    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_EQ(simd::activeBackend(), simd::Backend::Scalar);
}

TEST(SimdDispatch, EnvForcesAvx2)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(), "avx2");
    EXPECT_EQ(simd::activeBackend(), simd::Backend::Avx2);
}

TEST(SimdDispatch, AutoPicksBestAvailable)
{
    BackendGuard guard;
    setenv("SNIP_SIMD", "auto", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(),
                 simd::cpuSupportsAvx2() ? "avx2" : "scalar");
}

TEST(SimdDispatch, SetBackendByName)
{
    BackendGuard guard;
    EXPECT_TRUE(simd::setBackendByName("scalar"));
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_FALSE(simd::setBackendByName("neon"));
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_EQ(simd::setBackendByName("avx2"),
              simd::cpuSupportsAvx2());
}

/** Values exercising every quantizer branch: normals across binades,
 *  subnormals, ties, saturation, zeros, and non-finites. */
std::vector<float>
adversarialValues(const FloatFormat &fmt)
{
    const float max_v = static_cast<float>(fmt.maxValue());
    const float min_n = static_cast<float>(fmt.minNormal());
    const float min_s = static_cast<float>(fmt.minSubnormal());
    std::vector<float> vals = {
        0.0f,
        -0.0f,
        min_s * 0.25f,
        -min_s * 0.25f,
        min_s * 0.5f, // tie on the subnormal grid
        min_s,
        min_n * 0.999f,
        min_n,
        max_v * 0.999f,
        max_v,
        -max_v,
        max_v * 1.5f,
        -max_v * 1.5f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::max(),
    };
    // Dense coverage of the grid, including exact ties: odd multiples
    // of half a ULP land exactly between grid points.
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        float v = static_cast<float>(rng.nextGaussian() *
                                     std::pow(10.0, rng.nextRange(-9, 9)));
        vals.push_back(v);
        double ulp = ulpAt(v, fmt);
        vals.push_back(static_cast<float>(
            std::fabs(static_cast<double>(v)) + 0.5 * ulp));
    }
    return vals;
}

const FloatFormat *const kAllFormats[] = {&fp4E2m1(), &fp6E3m2(),
                                          &fp8E4m3(), &fp8E5m2(),
                                          &bf16(),    &fp16()};

TEST(SimdQuantize, BitExactAcrossBackendsEveryFormat)
{
    // Both backends against the codec loop; the AVX2 half skips on
    // hosts without it.
    const bool avx2 = simd::cpuSupportsAvx2();
    for (const FloatFormat *fmt : kAllFormats) {
        std::vector<float> vals = adversarialValues(*fmt);
        const QuantGrid grid = quantGrid(*fmt);
        for (float scale : {1.0f, 0.731f, 512.0f}) {
            std::vector<float> ref = vals, a = vals, b = vals;
            const float inv = 1.0f / scale;
            for (float &x : ref)
                x = quantizeNearest(x * scale, *fmt) * inv;
            simd::scalarKernels().quantizeNearest(
                a.data(), static_cast<int64_t>(a.size()), *fmt, grid,
                scale, inv);
            ASSERT_EQ(0, std::memcmp(ref.data(), a.data(),
                                     a.size() * sizeof(float)))
                << "scalar " << fmt->name << " scale=" << scale;
            if (!avx2)
                continue;
            simd::avx2Kernels().quantizeNearest(
                b.data(), static_cast<int64_t>(b.size()), *fmt, grid,
                scale, inv);
            ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(float)))
                << fmt->name << " scale=" << scale;
        }
    }
}

/** Stochastic-sweep input: the adversarial values, plus the same dense
 *  values with a zero, a non-finite or a saturated value in every
 *  third slot, so 8-lane blocks see every mix of lanes that draw and
 *  lanes that do not. */
std::vector<float>
stochasticValues(const FloatFormat &fmt)
{
    std::vector<float> vals = adversarialValues(fmt);
    const float max_v = static_cast<float>(fmt.maxValue());
    const float holes[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           max_v,
                           -max_v * 3.0f};
    const size_t n = vals.size();
    for (size_t i = 0; i < n; ++i) {
        const float v = i % 3 == 0 ? holes[(i / 3) % 7] : vals[i];
        vals.push_back(v);
    }
    return vals;
}

TEST(SimdQuantize, StochasticBitExactWithCodecDrawsEveryFormat)
{
    // The stochastic slot on both backends against the codec loop
    // quantizeStochastic(p[i] * scale) * inv: identical bytes, and an
    // identical Rng state after every call, which pins the draw count
    // (one per eligible element, none for the rest). Lengths 0..17
    // chunk the input so every 8-lane tail occurs, with each Rng
    // continuing across chunks as a region's stream does across rows.
    const bool avx2 = simd::cpuSupportsAvx2();
    for (const FloatFormat *fmt : kAllFormats) {
        const std::vector<float> vals = stochasticValues(*fmt);
        const QuantGrid grid = quantGrid(*fmt);
        for (float scale : {1.0f, 0.731f, 512.0f}) {
            const float inv = 1.0f / scale;
            for (int64_t len = 0; len <= 17; ++len) {
                Rng rng_ref(99), rng_s(99), rng_v(99);
                std::vector<float> ref = vals, a = vals, b = vals;
                const int64_t n = static_cast<int64_t>(vals.size());
                // len 0 makes one (empty) call.
                for (int64_t i0 = 0; i0 + len <= n;
                     i0 += std::max<int64_t>(len, 1)) {
                    for (int64_t i = i0; i < i0 + len; ++i)
                        ref[static_cast<size_t>(i)] =
                            quantizeStochastic(
                                ref[static_cast<size_t>(i)] * scale, *fmt,
                                rng_ref) *
                            inv;
                    simd::scalarKernels().quantizeStochastic(
                        a.data() + i0, len, grid, scale, inv, rng_s);
                    ASSERT_EQ(rng_ref.state(), rng_s.state())
                        << "scalar " << fmt->name << " scale=" << scale
                        << " len=" << len << " at " << i0;
                    if (avx2) {
                        simd::avx2Kernels().quantizeStochastic(
                            b.data() + i0, len, grid, scale, inv, rng_v);
                        ASSERT_EQ(rng_ref.state(), rng_v.state())
                            << "avx2 " << fmt->name << " scale=" << scale
                            << " len=" << len << " at " << i0;
                    }
                    if (len == 0)
                        break;
                }
                ASSERT_EQ(0, std::memcmp(ref.data(), a.data(),
                                         a.size() * sizeof(float)))
                    << "scalar " << fmt->name << " scale=" << scale
                    << " len=" << len;
                if (avx2) {
                    ASSERT_EQ(0, std::memcmp(ref.data(), b.data(),
                                             b.size() * sizeof(float)))
                        << "avx2 " << fmt->name << " scale=" << scale
                        << " len=" << len;
                }
            }
        }
    }
}

TEST(SimdQuantize, Bf16RoundBitExactAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    std::vector<float> vals = adversarialValues(bf16());
    std::vector<float> a = vals, b = vals;
    simd::scalarKernels().bf16Round(a.data(),
                                    static_cast<int64_t>(a.size()));
    simd::avx2Kernels().bf16Round(b.data(),
                                  static_cast<int64_t>(b.size()));
    EXPECT_EQ(0,
              std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(SimdQuantize, MaxAbsBitExactAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(17);
    for (int64_t n : {0, 1, 7, 8, 9, 1000}) {
        std::vector<float> v(static_cast<size_t>(n));
        for (auto &x : v)
            x = static_cast<float>(rng.nextGaussian() * 100.0);
        if (n > 3)
            v[3] = std::numeric_limits<float>::quiet_NaN();
        float s = simd::scalarKernels().maxAbs(v.data(), n);
        float a = simd::avx2Kernels().maxAbs(v.data(), n);
        EXPECT_EQ(s, a) << "n=" << n;
    }
}

TEST(SimdQuantize, FakeQuantizerEndToEndMatchesAt128Threads)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    Rng rng(5);
    Tensor t = Tensor::randn({130, 257}, rng, 3.0f);
    const QuantConfig cfg{fp4E2m1(),
                          {Granularity::Tilewise, 128},
                          Rounding::Nearest};

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    runtime::setGlobalThreadCount(1);
    FakeQuantizer qs(9);
    const Tensor ref = qs.quantize(t, cfg);

    for (const char *backend : {"scalar", "avx2"}) {
        setenv("SNIP_SIMD", backend, 1);
        simd::reinitFromEnv();
        for (int threads : {1, 2, 8}) {
            runtime::setGlobalThreadCount(threads);
            FakeQuantizer q(9);
            EXPECT_TRUE(q.quantize(t, cfg) == ref)
                << backend << " @ " << threads << " threads";
        }
    }
}

TEST(SimdGemm, BackendsAgreeWithinTolerance)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    // Shapes straddle the 64-wide block and the 2x4 register tile to
    // exercise every remainder path.
    const int64_t m = 131, n = 97, k = 71;
    Rng rng(23);
    Tensor a_nt = Tensor::randn({m, k}, rng);
    Tensor b_nt = Tensor::randn({n, k}, rng);
    Tensor a_nn = Tensor::randn({m, k}, rng);
    Tensor b_nn = Tensor::randn({k, n}, rng);
    Tensor a_tn = Tensor::randn({k, m}, rng);
    Tensor b_tn = Tensor::randn({k, n}, rng);

    auto compute = [&]() {
        std::vector<Tensor> r;
        r.push_back(matmulNT(a_nt, b_nt));
        r.push_back(matmulNN(a_nn, b_nn));
        r.push_back(matmulTN(a_tn, b_tn));
        return r;
    };

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    runtime::setGlobalThreadCount(1);
    const std::vector<Tensor> ref = compute();

    for (const char *backend : {"scalar", "avx2"}) {
        setenv("SNIP_SIMD", backend, 1);
        simd::reinitFromEnv();
        runtime::setGlobalThreadCount(1);
        const std::vector<Tensor> base = compute();
        // Within one backend: bit-identical for any thread count.
        for (int threads : {2, 8}) {
            runtime::setGlobalThreadCount(threads);
            const std::vector<Tensor> got = compute();
            for (size_t v = 0; v < got.size(); ++v) {
                EXPECT_TRUE(got[v] == base[v])
                    << backend << " variant " << v << " @ " << threads
                    << " threads";
            }
        }
        // Across backends: low-order bits may differ (FMA, lane
        // order); bound the relative Frobenius error.
        for (size_t v = 0; v < base.size(); ++v) {
            EXPECT_LT(diffNorm(base[v], ref[v]),
                      1e-6 * (1.0 + frobeniusNorm(ref[v])))
                << backend << " variant " << v;
        }
    }
}

TEST(SimdGemm, AccumulateAgreesAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    const int64_t m = 66, n = 35, k = 19;
    Rng rng(29);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    Tensor init = Tensor::randn({m, n}, rng);

    Tensor cs = init;
    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    gemmNT(a.data(), b.data(), cs.data(), m, n, k, /*accumulate=*/true);

    Tensor ca = init;
    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    gemmNT(a.data(), b.data(), ca.data(), m, n, k, /*accumulate=*/true);

    EXPECT_LT(diffNorm(cs, ca), 1e-6 * (1.0 + frobeniusNorm(cs)));
}

/** Pack one full operand with a backend table. */
std::vector<float>
packWith(const simd::KernelTable &kt, bool pack_a, const Tensor &src,
         bool k_major, int64_t extent, int64_t k,
         const simd::PackQuant *pq)
{
    const int64_t strip = pack_a ? simd::kGemmPackMR : simd::kGemmPackNR;
    // +8: PackAFn transpose-store headroom (simd/kernels.h).
    std::vector<float> out(static_cast<size_t>(
                               simd::packStrips(extent, strip) * strip *
                                   k +
                               8),
                           -7.5f);
    const int64_t ld = k_major ? extent : k;
    if (pack_a)
        kt.packA(src.data(), ld, k_major, out.data(), 0, extent, k, pq);
    else
        kt.packB(src.data(), ld, k_major, out.data(), 0, extent, extent,
                 k, pq);
    out.resize(static_cast<size_t>(
        simd::packStrips(extent, strip) * strip * k));
    return out;
}

TEST(SimdPack, PackKernelsBitExactAcrossBackends)
{
    // Packing is copies plus the grid-snap quantizer, both of which
    // the backends must reproduce bit for bit — so packed panels are
    // asserted EXACTLY equal, fused quantization included, for both
    // orientations of both operands at ragged extents.
    SKIP_WITHOUT_AVX2();
    const int64_t ext = 45, k = 147; // ragged strips, ragged regions
    Rng rng(31);
    const QuantConfig cfg =
        rolePolicy(Precision::FP4, TensorRole::Weight);
    const QuantGrid grid = quantGrid(cfg.format);
    for (bool pack_a : {true, false}) {
        for (bool k_major : {true, false}) {
            Tensor src = k_major
                             ? Tensor::randn({k, ext}, rng)
                             : Tensor::randn({ext, k}, rng);
            const int64_t rows = k_major ? k : ext;
            const int64_t cols = k_major ? ext : k;
            // Region scales shared by both backends (their maxAbs
            // kernels already agree bitwise).
            const RegionGrid regions(rows, cols, cfg.scaling);
            std::vector<float> scale, inv;
            for (int64_t i = 0; i < regions.count(); ++i) {
                scale.push_back(1.5f + static_cast<float>(i));
                inv.push_back(1.0f / scale.back());
            }
            const simd::PackQuant pq{&cfg.format, &grid, scale.data(),
                                     inv.data(), regions};
            for (const simd::PackQuant *q :
                 {static_cast<const simd::PackQuant *>(nullptr), &pq}) {
                auto s = packWith(simd::scalarKernels(), pack_a, src,
                                  k_major, ext, k, q);
                auto v = packWith(simd::avx2Kernels(), pack_a, src,
                                  k_major, ext, k, q);
                EXPECT_EQ(s, v)
                    << (pack_a ? "packA" : "packB")
                    << (k_major ? " k_major" : " row_major")
                    << (q ? " quantized" : " plain");
            }
        }
    }
}

TEST(SimdPack, StripGemmBackendsAgreeWithinTolerance)
{
    SKIP_WITHOUT_AVX2();
    const int64_t mb = 45, n = 39, k = 83;
    Rng rng(37);
    Tensor a = Tensor::randn({mb, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    auto ap = packWith(simd::scalarKernels(), true, a, false, mb, k,
                       nullptr);
    auto bp = packWith(simd::scalarKernels(), false, b, false, n, k,
                       nullptr);
    Tensor cs(mb, n), cv(mb, n);
    for (int64_t r0 = 0; r0 < mb; r0 += simd::kGemmPackMR) {
        const int64_t mr = std::min(simd::kGemmPackMR, mb - r0);
        simd::scalarKernels().gemmStrip(ap.data() + r0 * k, 1,
                                        simd::kGemmPackMR, bp.data(),
                                        cs.data() + r0 * n, n, mr, n, k);
        simd::avx2Kernels().gemmStrip(ap.data() + r0 * k, 1,
                                      simd::kGemmPackMR, bp.data(),
                                      cv.data() + r0 * n, n, mr, n, k);
    }
    EXPECT_LT(diffNorm(cs, cv), 1e-6 * (1.0 + frobeniusNorm(cs)));
}

/** Reference transcription of the historical open-coded attention
 *  softmax loops (nn/attention.cpp pre-batching): the semantics both
 *  backends' fused kernels must reproduce bit for bit. */
void
refAttnSoftmaxFwd(float *prob, int64_t seq, float scale)
{
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
refAttnSoftmaxBwd(const float *prob, const float *dp, float *ds,
                  int64_t seq, float scale)
{
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        double dot = 0.0;
        for (int64_t j = 0; j <= i; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        for (int64_t j = 0; j < seq; ++j)
            dsrow[j] = j <= i ? prow[j] *
                                    (dprow[j] - static_cast<float>(dot)) *
                                    scale
                              : 0.0f;
    }
}

TEST(SimdAttnSoftmax, FwdBitExactAcrossBackendsAndVsReference)
{
    Rng rng(51);
    for (int64_t seq : {1, 2, 7, 8, 9, 16, 33, 64}) {
        const float scale =
            1.0f / std::sqrt(static_cast<float>(seq));
        std::vector<float> scores(static_cast<size_t>(seq * seq));
        for (auto &x : scores)
            x = static_cast<float>(rng.nextGaussian() * 3.0);
        std::vector<float> ref = scores, sc = scores;
        refAttnSoftmaxFwd(ref.data(), seq, scale);
        simd::scalarKernels().attnSoftmaxFwd(sc.data(), seq, scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc.data(),
                                 ref.size() * sizeof(float)))
            << "scalar vs reference, seq=" << seq;
        if (simd::cpuSupportsAvx2()) {
            std::vector<float> av = scores;
            simd::avx2Kernels().attnSoftmaxFwd(av.data(), seq, scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), av.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 vs reference, seq=" << seq;
        }
    }
}

TEST(SimdAttnSoftmax, BwdBitExactAcrossBackendsAndVsReference)
{
    Rng rng(52);
    for (int64_t seq : {1, 2, 7, 8, 9, 16, 33, 64}) {
        const float scale = 0.25f;
        std::vector<float> prob(static_cast<size_t>(seq * seq));
        refAttnSoftmaxFwd(prob.data(), seq, 1.0f); // valid row dists
        std::vector<float> dp(static_cast<size_t>(seq * seq));
        for (auto &x : dp)
            x = static_cast<float>(rng.nextGaussian());
        std::vector<float> ref(dp.size()), sc(dp.size());
        refAttnSoftmaxBwd(prob.data(), dp.data(), ref.data(), seq,
                          scale);
        simd::scalarKernels().attnSoftmaxBwd(prob.data(), dp.data(),
                                             sc.data(), seq, scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc.data(),
                                 ref.size() * sizeof(float)))
            << "scalar vs reference, seq=" << seq;
        // In-place (ds aliasing dp) — the batched attention runtime
        // overwrites dP with dS through this contract.
        std::vector<float> sc_inplace = dp;
        simd::scalarKernels().attnSoftmaxBwd(prob.data(),
                                             sc_inplace.data(),
                                             sc_inplace.data(), seq,
                                             scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc_inplace.data(),
                                 ref.size() * sizeof(float)))
            << "scalar in-place, seq=" << seq;
        if (simd::cpuSupportsAvx2()) {
            std::vector<float> av(dp.size());
            simd::avx2Kernels().attnSoftmaxBwd(prob.data(), dp.data(),
                                               av.data(), seq, scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), av.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 vs reference, seq=" << seq;
            // In-place (ds aliasing dp) must match the out-of-place
            // result — the attention runtime relies on row locality.
            std::vector<float> inplace = dp;
            simd::avx2Kernels().attnSoftmaxBwd(prob.data(),
                                               inplace.data(),
                                               inplace.data(), seq,
                                               scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), inplace.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 in-place, seq=" << seq;
        }
    }
}

TEST(SimdErrorStats, BackendsAgree)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(31);
    for (int64_t n : {0, 1, 5, 8, 13, 4096}) {
        std::vector<float> ref(static_cast<size_t>(n)),
            q(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
            ref[static_cast<size_t>(i)] =
                static_cast<float>(rng.nextGaussian());
            q[static_cast<size_t>(i)] =
                ref[static_cast<size_t>(i)] +
                static_cast<float>(rng.nextGaussian() * 1e-3);
        }
        double ss = 0, sm = 0, as = 0, am = 0;
        simd::scalarKernels().errorStats(ref.data(), q.data(), n, &ss,
                                         &sm);
        simd::avx2Kernels().errorStats(ref.data(), q.data(), n, &as,
                                       &am);
        EXPECT_EQ(sm, am) << "max must be exact, n=" << n;
        EXPECT_NEAR(ss, as, 1e-12 * (1.0 + ss)) << "n=" << n;
    }
}

TEST(SimdReductions, SumSquaresBackendsAgree)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(41);
    for (int64_t n : {0, 1, 5, 8, 13, 4096}) {
        std::vector<float> v(static_cast<size_t>(n));
        for (auto &x : v)
            x = static_cast<float>(rng.nextGaussian() * 10.0);
        const double s =
            simd::scalarKernels().sumSquares(v.data(), n);
        const double a = simd::avx2Kernels().sumSquares(v.data(), n);
        EXPECT_NEAR(s, a, 1e-12 * (1.0 + s)) << "n=" << n;
    }
}

TEST(SimdReductions, TensorOpsFollowTheActiveBackend)
{
    // The stats-collector/eval reductions (tensor/ops.cpp) dispatch
    // through the KernelTable: maxAbs must agree bit for bit across
    // backends, the sum-of-squares norms within low-order bits.
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    Rng rng(43);
    Tensor t = Tensor::randn({130, 257}, rng, 5.0f);
    Tensor u = Tensor::randn({130, 257}, rng, 5.0f);

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    const double norm_s = frobeniusNorm(t);
    const double sumsq_s = sumSquares(t);
    const double diff_s = diffNorm(t, u);
    const float max_s = maxAbs(t);

    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    EXPECT_EQ(maxAbs(t), max_s);
    EXPECT_NEAR(frobeniusNorm(t), norm_s, 1e-9 * (1.0 + norm_s));
    EXPECT_NEAR(sumSquares(t), sumsq_s, 1e-9 * (1.0 + sumsq_s));
    EXPECT_NEAR(diffNorm(t, u), diff_s, 1e-9 * (1.0 + diff_s));
}

TEST(SimdErrorStats, MeasureQuantErrorStableAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    Rng rng(37);
    Tensor t = Tensor::randn({64, 96}, rng);
    FakeQuantizer quant(1);
    const QuantConfig cfg{fp8E4m3(),
                          {Granularity::Blockwise, 128},
                          Rounding::Nearest};

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    QuantError es = measureQuantError(t, cfg, quant);

    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    QuantError ea = measureQuantError(t, cfg, quant);

    EXPECT_EQ(es.max_error, ea.max_error);
    EXPECT_NEAR(es.abs_error, ea.abs_error, 1e-9 * (1.0 + es.abs_error));
    EXPECT_NEAR(es.rel_error, ea.rel_error, 1e-9);
}

} // namespace
} // namespace snip
