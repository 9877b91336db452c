/**
 * @file
 * Fake quantization of whole tensors, plus the per-role policies the
 * paper's training recipe assigns (Sec. 2.3 / 6.1).
 */
#ifndef SNIP_QUANT_QUANTIZER_H
#define SNIP_QUANT_QUANTIZER_H

#include "quant/codec.h"
#include "quant/scaling.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace snip {

/** Everything needed to fake-quantize one tensor. */
struct QuantConfig
{
    FloatFormat format = bf16();
    ScalingSpec scaling;
    Rounding rounding = Rounding::Nearest;

    /** Short description like "fp4_e2m1/tilewise128/stochastic". */
    std::string describe() const;
};

/** Precision levels a layer can be assigned (the ILP's options build on
 *  these). BF16 means "leave the GEMM in high precision". FP6 (MX
 *  E3M2) demonstrates the paper's extensibility claim — "new methods
 *  can be incorporated as additional quantization options" (Sec. 3.2):
 *  it slots into the statistics, divergence and scheme machinery like
 *  any other level, though the paper's FP4-FLOP-fraction efficiency
 *  metric grants it no efficiency credit. */
enum class Precision { BF16 = 0, FP8 = 1, FP6 = 2, FP4 = 3 };

/** Name for tables ("BF16"/"FP8"/"FP6"/"FP4"). */
const char *precisionName(Precision p);

/** Bits per element of a precision level (16/8/6/4). */
int precisionBits(Precision p);

/** Role a tensor plays in a linear layer's GEMMs. */
enum class TensorRole { Activation, Weight, OutputGrad };

/** Name for tables. */
const char *tensorRoleName(TensorRole role);

/**
 * The paper's quantization recipe for a (precision, role) pair:
 *  - activations & gradients: 1x128 tile-wise; weights: 128x128
 *    block-wise (DeepSeek-V3);
 *  - FP8 uses E4M3 for forward tensors, E5M2 for gradients;
 *  - FP4 uses E2M1 everywhere, with stochastic rounding on gradients.
 * BF16 quantizes tensor-wise with scale 1 semantics (the bf16 grid is
 * wide enough that no rescaling is needed).
 */
QuantConfig rolePolicy(Precision precision, TensorRole role);

/**
 * Ablation knob: override the rounding mode used for FP4 gradients
 * (default Rounding::Stochastic per the paper). Affects subsequent
 * rolePolicy() results process-wide; intended for the rounding-mode
 * ablation bench and tests only.
 */
void setFp4GradRounding(Rounding rounding);

/** Current FP4-gradient rounding mode. */
Rounding fp4GradRounding();

/**
 * Applies quantize-dequantize to tensors.
 *
 * A call measures every scaling region of the tensor's matrix view
 * (RegionGrid, measureRegion()) and quantizes it row segment by row
 * segment through the active KernelTable's quantize kernels, which are
 * bit-exact across backends. Regions are swept in parallel on the
 * shared thread pool (runtime/thread_pool.h).
 *
 * Owns the Rng seeding stochastic rounding so repeated calls advance
 * one deterministic stream: each stochastic call draws one 64-bit call
 * key from it, and region g draws from its own stream seeded by
 * (call key, g). Within a region the draws follow the codec's
 * contract (quantizeStochastic()): one draw per eligible element —
 * finite, nonzero and below the format's max after scaling — in
 * ascending row-major order, none for any other element. Because the
 * per-region streams, that draw order and the region order are fixed,
 * results are bit-identical for any thread count and either backend.
 * Nearest-rounding calls never touch the Rng, so distinct tensors may
 * be quantized concurrently with Nearest configs.
 *
 * Each call is one telemetry::Timer::Quantize span, named
 * quantize_nearest or quantize_stochastic after its rounding.
 */
class FakeQuantizer
{
  public:
    explicit FakeQuantizer(uint64_t seed = 0xF00DF00Dull);

    /** Quantize-dequantize a copy of @p t under @p cfg. */
    Tensor quantize(const Tensor &t, const QuantConfig &cfg);

    /** Quantize-dequantize @p t in place. */
    void quantizeInPlace(Tensor &t, const QuantConfig &cfg);

    /** Access the rounding Rng (tests use this to fix the stream). */
    Rng &rng() { return rng_; }
    const Rng &rng() const { return rng_; }

  private:
    Rng rng_;
};

} // namespace snip

#endif // SNIP_QUANT_QUANTIZER_H
