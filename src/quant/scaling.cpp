#include "quant/scaling.h"

#include "runtime/thread_pool.h"
#include "simd/kernels.h"

namespace snip {

const char *
granularityName(Granularity g)
{
    switch (g) {
        case Granularity::Tensorwise:
            return "tensorwise";
        case Granularity::Rowwise:
            return "rowwise";
        case Granularity::Columnwise:
            return "columnwise";
        case Granularity::Blockwise:
            return "blockwise";
        case Granularity::Tilewise:
            return "tilewise";
    }
    return "?";
}

RegionGrid::RegionGrid(int64_t rows, int64_t cols, const ScalingSpec &spec)
    : rows_(rows), cols_(cols), rb_(rows), cb_(cols)
{
    const int64_t nb = std::max<int64_t>(1, spec.block);
    switch (spec.granularity) {
        case Granularity::Tensorwise:
            break;
        case Granularity::Rowwise:
            rb_ = 1;
            break;
        case Granularity::Columnwise:
            cb_ = 1;
            break;
        case Granularity::Blockwise:
            rb_ = nb;
            cb_ = nb;
            break;
        case Granularity::Tilewise:
            rb_ = 1;
            cb_ = nb;
            break;
    }
    rb_ = std::max<int64_t>(1, std::min(rb_, rows));
    cb_ = std::max<int64_t>(1, std::min(cb_, cols));
    bands_ = (rows + rb_ - 1) / rb_;
    per_band_ = (cols + cb_ - 1) / cb_;
}

double
regionScale(double max_abs, double fmt_max)
{
    if (max_abs <= 0.0)
        return 1.0;
    return fmt_max / max_abs;
}

RegionScale
measureRegion(const simd::KernelTable &kt, const float *p, int64_t ld,
              const RegionGrid::Bounds &b, double fmt_max)
{
    double max_abs = 0.0;
    for (int64_t r = b.r0; r < b.r1; ++r)
        max_abs = std::max(max_abs, static_cast<double>(kt.maxAbs(
                                        p + r * ld + b.c0, b.c1 - b.c0)));
    const double scale = regionScale(max_abs, fmt_max);
    return {static_cast<float>(scale), static_cast<float>(1.0 / scale)};
}

namespace {

/** One computeRegionScales() call (the parallelFor lambda captures
 *  only a pointer to this, so the call allocates nothing). */
struct ScaleCtx
{
    const simd::KernelTable *kt;
    const float *p;
    const RegionGrid *grid;
    double fmt_max;
    float *scale;
    float *inv;
};

} // namespace

void
computeRegionScales(const simd::KernelTable &kt, const float *p,
                    const RegionGrid &grid, double fmt_max, float *scale,
                    float *inv)
{
    const ScaleCtx ctx{&kt, p, &grid, fmt_max, scale, inv};
    const ScaleCtx *pc = &ctx;
    runtime::parallelFor(0, grid.count(), 8, [pc](int64_t g0, int64_t g1) {
        for (int64_t i = g0; i < g1; ++i) {
            const RegionScale s =
                measureRegion(*pc->kt, pc->p, pc->grid->cols(),
                              pc->grid->bounds(i), pc->fmt_max);
            pc->scale[i] = s.scale;
            pc->inv[i] = s.inv;
        }
    });
}

void
matrixView(const Tensor &t, int64_t &rows, int64_t &cols)
{
    if (t.rank() == 0 || t.numel() == 0) {
        rows = t.numel() > 0 ? 1 : 0;
        cols = t.numel();
        return;
    }
    cols = t.size(-1);
    rows = cols > 0 ? t.numel() / cols : 0;
}

} // namespace snip
