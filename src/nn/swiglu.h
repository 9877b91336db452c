/**
 * @file
 * SwiGLU feed-forward network: down( silu(gate(x)) ⊙ up(x) ).
 *
 * Gate, Up and Down are quantizable Linear layers; the SiLU activation
 * and the Hadamard product stay in high precision (Sec. 2.2).
 */
#ifndef SNIP_NN_SWIGLU_H
#define SNIP_NN_SWIGLU_H

#include <memory>

#include "nn/layer_registry.h"
#include "nn/linear.h"

namespace snip {

/** The Llama MLP with SwiGLU activation. */
class SwiGluMlp
{
  public:
    SwiGluMlp(const ModelConfig &config, int block, Rng &rng,
              FakeQuantizer *quantizer);

    /** x is [T, d_model]; returns [T, d_model]. */
    Tensor forward(const Tensor &x);

    /**
     * Inference-only forward on raw buffers: writes the MLP output for
     * @p rows rows of @p x into @p y (may not alias) using arena
     * scratch for the hidden activations. Saves no state; rows are
     * bit-identical to the same rows of forward()
     * (Linear::forwardInference).
     */
    void forwardInference(const float *x, int64_t rows, float *y);

    /** Backprop through all three projections. */
    Tensor backward(const Tensor &dy);

    /** Access a projection by role (Gate/Up/Down only). */
    Linear &linear(LayerRole role);

    ParamList params();

  private:
    std::unique_ptr<Linear> gate_, up_, down_;
    Tensor g_, u_, s_; ///< saved gate output, up output, silu(gate)
};

} // namespace snip

#endif // SNIP_NN_SWIGLU_H
