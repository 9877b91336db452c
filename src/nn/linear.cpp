#include "nn/linear.h"

#include <cstring>

#include "runtime/workspace_arena.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace snip {

Linear::Linear(std::string name, int64_t out_features, int64_t in_features,
               Rng &rng, float init_std, FakeQuantizer *quantizer)
    : name_(std::move(name)),
      w_(Tensor::randn({out_features, in_features}, rng, init_std)),
      grad_w_(out_features, in_features),
      quantizer_(quantizer)
{
}

Linear::QuantPlan
Linear::plan(GemmKind kind, TensorRole role) const
{
    QuantPlan p;
    const Precision prec = scheme_.of(kind);
    // BF16 GEMMs are the high-precision reference: the FP32 master is
    // used directly (bf16 rounding of FP32 master weights is treated as
    // exact, as the paper treats its BF16 baseline).
    if (quantizer_ == nullptr || prec == Precision::BF16)
        return p;
    p.cfg = rolePolicy(prec, role);
    if (p.cfg.rounding == Rounding::Stochastic)
        p.materialize = true; // RNG stream order forbids fusing
    else
        p.fused = true;
    return p;
}

Tensor
Linear::materialized(const Tensor &t, const QuantPlan &plan)
{
    if (!plan.fused && !plan.materialize)
        return t;
    return quantizer_->quantize(t, plan.cfg);
}

const Tensor &
Linear::packedSrc(const Tensor &t, const QuantPlan &plan, Tensor &storage,
                  const QuantConfig **fused)
{
    if (plan.materialize) {
        storage = quantizer_->quantize(t, plan.cfg);
        *fused = nullptr;
        return storage;
    }
    *fused = plan.fusedCfg();
    return t;
}

PackedWeightCache *
Linear::activeCache()
{
    return w_packs_.implicitCachingActive() ? &w_packs_ : nullptr;
}

Tensor
Linear::forward(const Tensor &x)
{
    SNIP_ASSERT(x.rank() == 2 && x.size(1) == inFeatures(),
                "bad input shape for ", name_);
    saved_x_ = x;
    Tensor y;
    if (gemmPackEnabled(x.size(0), outFeatures(), inFeatures())) {
        QuantPlan xp = plan(GemmKind::Fwd, TensorRole::Activation);
        QuantPlan wp = plan(GemmKind::Fwd, TensorRole::Weight);
        Tensor xs;
        const QuantConfig *xq = nullptr;
        const Tensor &xa = packedSrc(x, xp, xs, &xq);
        y = quantMatmulNT(xa, xq, w_, wp.fusedCfg(), activeCache());
    } else {
        Tensor xq =
            materialized(x, plan(GemmKind::Fwd, TensorRole::Activation));
        Tensor wq =
            materialized(w_, plan(GemmKind::Fwd, TensorRole::Weight));
        y = matmulNT(xq, wq);
    }
    if (tap_)
        tap_->onForward(tap_idx_, x, w_, y);
    return y;
}

const Tensor &
Linear::inferenceWeight(const QuantPlan &wp)
{
    if (!wp.fused && !wp.materialize)
        return w_; // passthrough plan: the FP32 master is the operand
    const uint64_t epoch = weightPackEpoch();
    if (!w_inf_valid_ || w_inf_epoch_ != epoch ||
        w_inf_format_ != wp.cfg.format.name) {
        SNIP_ASSERT(wp.cfg.rounding == Rounding::Nearest,
                    "stochastic-rounding weights are training-only (",
                    name_, ")");
        w_inf_ = quantizer_->quantize(w_, wp.cfg);
        w_inf_valid_ = true;
        w_inf_epoch_ = epoch;
        w_inf_format_ = wp.cfg.format.name;
    }
    return w_inf_;
}

void
Linear::forwardInference(const float *x, int64_t rows, float *y)
{
    const int64_t in = inFeatures();
    const int64_t out = outFeatures();
    const QuantPlan xp = plan(GemmKind::Fwd, TensorRole::Activation);
    const QuantPlan wp = plan(GemmKind::Fwd, TensorRole::Weight);
    const Tensor &w = inferenceWeight(wp);

    if (!xp.fused && !xp.materialize) {
        gemmNT(x, w.data(), y, rows, out, in);
        return;
    }

    // Quantize the activation rows into arena scratch with the
    // quantizer's own region sweep, serially on this thread. A decode
    // row must quantize identically to the same row inside a
    // full-sequence activation, which only holds when no region spans
    // rows.
    SNIP_ASSERT(xp.cfg.rounding == Rounding::Nearest,
                "stochastic-rounding activations are training-only (",
                name_, ")");
    const Granularity gran = xp.cfg.scaling.granularity;
    SNIP_ASSERT(gran == Granularity::Tilewise ||
                    gran == Granularity::Rowwise,
                "inference needs row-local activation scaling (", name_,
                " uses ", granularityName(gran), ")");
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    float *xq = arena.getFloats(static_cast<size_t>(rows * in));
    std::memcpy(xq, x, static_cast<size_t>(rows * in) * sizeof(float));
    const RegionSweep sweep(xq, RegionGrid(rows, in, xp.cfg.scaling),
                            xp.cfg, /*call_key=*/0);
    sweep.run(0, sweep.regions.count());
    gemmNT(xq, w.data(), y, rows, out, in);
}

Tensor
Linear::backward(const Tensor &dy)
{
    SNIP_ASSERT(dy.rank() == 2 && dy.size(1) == outFeatures(),
                "bad grad shape for ", name_);
    SNIP_ASSERT(saved_x_.numel() > 0, "backward before forward in ",
                name_);
    const int64_t rows = dy.size(0);

    // dX = dY W (Dgrad GEMM).
    Tensor dx;
    if (gemmPackEnabled(rows, inFeatures(), outFeatures())) {
        QuantPlan dp = plan(GemmKind::Dgrad, TensorRole::OutputGrad);
        QuantPlan wp = plan(GemmKind::Dgrad, TensorRole::Weight);
        Tensor dys;
        const QuantConfig *dq = nullptr;
        const Tensor &dya = packedSrc(dy, dp, dys, &dq);
        dx = quantMatmulNN(dya, dq, w_, wp.fusedCfg(), activeCache());
    } else {
        Tensor dyq = materialized(
            dy, plan(GemmKind::Dgrad, TensorRole::OutputGrad));
        Tensor wq =
            materialized(w_, plan(GemmKind::Dgrad, TensorRole::Weight));
        dx = matmulNN(dyq, wq);
    }

    // dW = dY^T X (Wgrad GEMM). Without a tap the packed path
    // accumulates straight into grad_w_ (one add of the full k-sum per
    // element — bit-identical to materializing dW and adding it).
    if (gemmPackEnabled(outFeatures(), inFeatures(), rows)) {
        QuantPlan dp = plan(GemmKind::Wgrad, TensorRole::OutputGrad);
        QuantPlan xp = plan(GemmKind::Wgrad, TensorRole::Activation);
        Tensor dys;
        const QuantConfig *dq = nullptr;
        const Tensor &dya = packedSrc(dy, dp, dys, &dq);
        if (tap_) {
            // The tap observes the dW increment, so materialize it.
            Tensor dw(outFeatures(), inFeatures());
            quantGemmTN(dya, dq, saved_x_, xp.fusedCfg(), dw,
                        /*accumulate=*/false);
            addInPlace(grad_w_, dw);
            tap_->onBackward(tap_idx_, dy, dx, dw);
            return dx;
        }
        quantGemmTN(dya, dq, saved_x_, xp.fusedCfg(), grad_w_,
                    /*accumulate=*/true);
        return dx;
    }
    Tensor dyq =
        materialized(dy, plan(GemmKind::Wgrad, TensorRole::OutputGrad));
    Tensor xq = materialized(
        saved_x_, plan(GemmKind::Wgrad, TensorRole::Activation));
    Tensor dw = matmulTN(dyq, xq);
    addInPlace(grad_w_, dw);
    if (tap_)
        tap_->onBackward(tap_idx_, dy, dx, dw);
    return dx;
}

} // namespace snip
