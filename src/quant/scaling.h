/**
 * @file
 * Scaling regions for fake quantization: the one region grid and the
 * one scale recipe every quantizer in the library uses.
 *
 * Low-precision formats have tiny dynamic ranges, so every region of a
 * tensor is rescaled such that its max-|value| maps to the format's max
 * representable value before quantization (Sec. 2.3):
 *
 *     scale = FPX_MAX / max(abs(region));  q = Q(x*scale) / scale
 *
 * Following the DeepSeek-V3 recipe the paper adopts, activations and
 * gradients use 1xNB tile-wise scaling and weights NBxNB block-wise
 * scaling with NB = 128; tensor-, row- and column-wise granularities are
 * also provided for ablations.
 *
 * RegionGrid is the geometry of a spec on a rows x cols matrix. Every
 * granularity is a grid of rb x cb rectangles clipped at the bottom and
 * right edges: tensorwise rows x cols, rowwise 1 x cols, columnwise
 * rows x 1, blockwise NB x NB, tilewise 1 x NB. Regions are numbered
 * band by band (a band is rb rows), left to right within a band:
 *
 *     index(r, c) = (r / rb) * ceil(cols / cb) + c / cb
 *
 * That order is a contract. Stochastic rounding seeds region i's stream
 * from i (quant/quantizer.h), so renumbering changes every stochastic
 * result (tests/golden_digests.h pins it as quant_regions); and the
 * fused quantize-on-pack kernels (simd/kernels.h) look region index(r,
 * c) up in scale arrays that computeRegionScales() fills in this order.
 *
 * measureRegion() is the scale recipe itself — max-|x| in double,
 * regionScale(), narrowing to the float pair the kernels multiply by —
 * shared by the quantizer, the fused pack and the FP8 KV-cache encoder.
 */
#ifndef SNIP_QUANT_SCALING_H
#define SNIP_QUANT_SCALING_H

#include <algorithm>
#include <cstdint>

#include "tensor/tensor.h"

namespace snip {

namespace simd {
struct KernelTable;
} // namespace simd

/** Region shape that shares one scaling factor. */
enum class Granularity
{
    Tensorwise,  ///< one scale for the whole tensor
    Rowwise,     ///< one scale per row
    Columnwise,  ///< one scale per column
    Blockwise,   ///< one scale per NB x NB block
    Tilewise,    ///< one scale per 1 x NB tile (DeepSeek-V3 activations)
};

/** Name for logging/tables. */
const char *granularityName(Granularity g);

/** Granularity plus its block edge (ignored for tensor/row/column). */
struct ScalingSpec
{
    Granularity granularity = Granularity::Tensorwise;
    int block = 128;
};

/** The scaling regions of a spec on a rows x cols matrix, numbered in
 *  the band-major order the file comment describes. */
class RegionGrid
{
  public:
    /** Half-open element bounds of one region. */
    struct Bounds
    {
        int64_t r0, r1, c0, c1;
    };

    RegionGrid() = default;
    RegionGrid(int64_t rows, int64_t cols, const ScalingSpec &spec);

    /** Number of regions — the scaling factors the spec stores (the
     *  paper's <1% memory-overhead claim is checked against this). */
    int64_t count() const { return bands_ * per_band_; }

    /** Columns of the matrix the grid covers. */
    int64_t cols() const { return cols_; }

    /** Bounds of region @p i, 0 <= i < count(). */
    Bounds bounds(int64_t i) const
    {
        const int64_t r0 = (i / per_band_) * rb_;
        const int64_t c0 = (i % per_band_) * cb_;
        return {r0, std::min(rows_, r0 + rb_), c0,
                std::min(cols_, c0 + cb_)};
    }

    /** Index of the region holding element (r, c). */
    int64_t index(int64_t r, int64_t c) const
    {
        return bandStart(r) + colSlot(c);
    }

    /** Index of the leftmost region of row @p r's band. */
    int64_t bandStart(int64_t r) const { return (r / rb_) * per_band_; }

    /** Position of column @p c's region within its band. */
    int64_t colSlot(int64_t c) const { return c / cb_; }

    /** One past the last column of the region holding column @p c. */
    int64_t colEnd(int64_t c) const
    {
        return std::min(cols_, (c / cb_ + 1) * cb_);
    }

  private:
    int64_t rows_ = 0, cols_ = 0;
    int64_t rb_ = 1, cb_ = 1;          ///< region edge in rows / cols
    int64_t bands_ = 0, per_band_ = 0; ///< grid extents
};

/**
 * Scale for one region: fmt_max / maxabs. Returns 1.0 when the region is
 * all zeros (nothing to scale; quantization is then exact).
 */
double regionScale(double max_abs, double fmt_max);

/** A region's scale narrowed to the float pair quantization applies:
 *  q = Q(x * scale) * inv. */
struct RegionScale
{
    float scale, inv;
};

/** The scale of region @p b of the row-major matrix at @p p (leading
 *  dimension @p ld): max-|x| over its rows in double, regionScale(),
 *  then scale and 1/scale narrowed to float. */
RegionScale measureRegion(const simd::KernelTable &kt, const float *p,
                          int64_t ld, const RegionGrid::Bounds &b,
                          double fmt_max);

/** measureRegion() of every region of @p grid over the row-major
 *  matrix at @p p into scale[i] / inv[i], fanned out over the thread
 *  pool (regions are independent, so any partition is deterministic). */
void computeRegionScales(const simd::KernelTable &kt, const float *p,
                         const RegionGrid &grid, double fmt_max,
                         float *scale, float *inv);

/** View any tensor as a 2-D matrix: rows = numel/lastdim, cols =
 *  lastdim. Rank-0/1 tensors become a single row. */
void matrixView(const Tensor &t, int64_t &rows, int64_t &cols);

} // namespace snip

#endif // SNIP_QUANT_SCALING_H
