#include "quant/quantizer.h"

#include <cmath>
#include <cstring>

#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "telemetry/telemetry.h"
#include "util/string_util.h"

namespace snip {

std::string
QuantConfig::describe() const
{
    return strformat("%s/%s%d/%s", format.name.c_str(),
                     granularityName(scaling.granularity), scaling.block,
                     roundingName(rounding));
}

const char *
precisionName(Precision p)
{
    switch (p) {
        case Precision::BF16:
            return "BF16";
        case Precision::FP8:
            return "FP8";
        case Precision::FP6:
            return "FP6";
        case Precision::FP4:
            return "FP4";
    }
    return "?";
}

int
precisionBits(Precision p)
{
    switch (p) {
        case Precision::BF16:
            return 16;
        case Precision::FP8:
            return 8;
        case Precision::FP6:
            return 6;
        case Precision::FP4:
            return 4;
    }
    return 0;
}

const char *
tensorRoleName(TensorRole role)
{
    switch (role) {
        case TensorRole::Activation:
            return "activation";
        case TensorRole::Weight:
            return "weight";
        case TensorRole::OutputGrad:
            return "output_grad";
    }
    return "?";
}

namespace {
Rounding g_fp4_grad_rounding = Rounding::Stochastic;
} // namespace

void
setFp4GradRounding(Rounding rounding)
{
    g_fp4_grad_rounding = rounding;
}

Rounding
fp4GradRounding()
{
    return g_fp4_grad_rounding;
}

QuantConfig
rolePolicy(Precision precision, TensorRole role)
{
    QuantConfig cfg;
    switch (precision) {
        case Precision::BF16:
            cfg.format = bf16();
            cfg.scaling = {Granularity::Tensorwise, 0};
            cfg.rounding = Rounding::Nearest;
            return cfg;
        case Precision::FP8:
            cfg.format = (role == TensorRole::OutputGrad) ? fp8E5m2()
                                                          : fp8E4m3();
            break;
        case Precision::FP6:
            cfg.format = fp6E3m2();
            break;
        case Precision::FP4:
            cfg.format = fp4E2m1();
            break;
    }
    if (role == TensorRole::Weight) {
        cfg.scaling = {Granularity::Blockwise, 128};
    } else {
        cfg.scaling = {Granularity::Tilewise, 128};
    }
    cfg.rounding = (precision == Precision::FP4 &&
                    role == TensorRole::OutputGrad)
                       ? g_fp4_grad_rounding
                       : Rounding::Nearest;
    return cfg;
}

namespace {

/**
 * Quantizes regions [g0, g1) of one row-major matrix in place under
 * @p cfg, serially on the calling thread: measureRegion() gives each
 * region's scale, and each row segment of the region is one call into
 * the active quantize kernel. Stochastic region g draws from a stream
 * seeded by (call_key, g), continued across its row segments.
 */
struct RegionSweep
{
    RegionSweep(float *p, const RegionGrid &regions, const QuantConfig &cfg,
                uint64_t call_key)
        : p(p), regions(regions), cfg(&cfg), grid(quantGrid(cfg.format)),
          fmt_max(cfg.format.maxValue()), call_key(call_key)
    {
    }

    void run(int64_t g0, int64_t g1) const
    {
        const simd::KernelTable &kt = simd::activeKernels();
        const int64_t cols = regions.cols();
        for (int64_t g = g0; g < g1; ++g) {
            const RegionGrid::Bounds b = regions.bounds(g);
            const RegionScale s = measureRegion(kt, p, cols, b, fmt_max);
            if (cfg->rounding != Rounding::Stochastic) {
                for (int64_t r = b.r0; r < b.r1; ++r)
                    kt.quantizeNearest(p + r * cols + b.c0, b.c1 - b.c0,
                                       cfg->format, grid, s.scale, s.inv);
                continue;
            }
            Rng region_rng(call_key + 0x9E3779B97F4A7C15ull *
                                          (static_cast<uint64_t>(g) + 1));
            for (int64_t r = b.r0; r < b.r1; ++r)
                kt.quantizeStochastic(p + r * cols + b.c0, b.c1 - b.c0,
                                      grid, s.scale, s.inv, region_rng);
        }
    }

    float *p;
    RegionGrid regions;
    const QuantConfig *cfg;
    QuantGrid grid;
    double fmt_max;
    uint64_t call_key;
};

} // namespace

FakeQuantizer::FakeQuantizer(uint64_t seed) : rng_(seed) {}

Tensor
FakeQuantizer::quantize(const Tensor &t, const QuantConfig &cfg)
{
    Tensor out = t;
    quantizeInPlace(out, cfg);
    return out;
}

void
FakeQuantizer::quantizeInPlace(Tensor &t, const QuantConfig &cfg)
{
    const bool stochastic = cfg.rounding == Rounding::Stochastic;
    telemetry::Scope span(telemetry::Timer::Quantize,
                          stochastic ? "quantize_stochastic"
                                     : "quantize_nearest",
                          "numel", t.numel());
    if (cfg.format.name == "bf16" && !stochastic) {
        // Fast path: bf16 needs no rescaling, so the whole tensor is
        // one tight round-to-nearest-even sweep (exact bit
        // manipulation in every backend).
        const simd::KernelTable &kt = simd::activeKernels();
        float *p = t.data();
        runtime::parallelFor(0, t.numel(), 1 << 15,
                             [p, &kt](int64_t i0, int64_t i1) {
                                 kt.bf16Round(p + i0, i1 - i0);
                             });
        return;
    }
    int64_t rows, cols;
    matrixView(t, rows, cols);
    if (rows == 0 || cols == 0)
        return;
    // Stochastic rounding draws from one per-region stream seeded by
    // (call key, region index): the member stream advances exactly once
    // per call (so repeated calls remain one deterministic sequence)
    // and every region's draws are independent of how regions are
    // scheduled across threads — results are bit-identical for any
    // thread count. The pool runs a lambda that captures only a pointer
    // to the sweep, so a warmed call allocates nothing.
    const RegionSweep sweep(
        t.data(), RegionGrid(rows, cols, cfg.scaling), cfg,
        stochastic ? rng_.nextU64() : 0);
    const RegionSweep *ps = &sweep;
    runtime::parallelFor(0, sweep.regions.count(), 8,
                         [ps](int64_t g0, int64_t g1) { ps->run(g0, g1); });
}

} // namespace snip
