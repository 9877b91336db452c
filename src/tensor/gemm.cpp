#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "quant/codec.h"
#include "quant/scaling.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace_arena.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/thread_annotations.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace snip {

namespace {

using simd::kGemmPackMR;
using simd::kGemmPackNR;
using simd::packStrips;

/// Floats of packed panel per parallelFor chunk of a B pack: smaller
/// panels pack on the calling thread, since handing a few microseconds
/// of copying to the pool costs more than it saves. Packing is a pure
/// copy, so the chunking never changes numerics.
constexpr int64_t kPackChunkFloats = int64_t{1} << 14;

/// parallelFor grain for packing units of @p unit_floats floats each.
int64_t
packGrain(int64_t unit_floats)
{
    return std::max<int64_t>(1, kPackChunkFloats / unit_floats);
}

/// Number of kGemmBlockM-row blocks (the parallelFor unit: every
/// worker owns whole rows of C, so outputs are disjoint and the
/// per-element accumulation order never depends on thread count).
int64_t
mBlocks(int64_t m)
{
    return (m + simd::kGemmBlockM - 1) / simd::kGemmBlockM;
}

// ---------------------------------------------- fused-quant plumbing

/** A fully-resolved fused-quant operand: grid constants plus bound
 *  scale buffers. pq points into this object — never copy it. */
struct OperandQuant
{
    QuantGrid grid;
    simd::PackQuant pq;

    OperandQuant() = default;
    OperandQuant(const OperandQuant &) = delete;
    OperandQuant &operator=(const OperandQuant &) = delete;
};

/** Bind @p oq to (@p cfg, @p regions) and scale buffers that already
 *  hold the operand's region scales. */
void
bindOperandQuant(OperandQuant &oq, const QuantConfig &cfg,
                 const RegionGrid &regions, const float *scale,
                 const float *inv)
{
    oq.grid = quantGrid(cfg.format);
    oq.pq = {&cfg.format, &oq.grid, scale, inv, regions};
}

/** Bind @p oq to (source, cfg), computing scales into the caller's
 *  buffers (arena or cache vectors) with the materializing quantizer's
 *  recipe, so fused quantize-on-pack is bit-identical to
 *  quantize-then-pack. */
void
setupOperandQuant(OperandQuant &oq, const simd::KernelTable &kt,
                  const QuantConfig &cfg, const float *src,
                  const RegionGrid &regions, float *scale, float *inv)
{
    SNIP_ASSERT(cfg.rounding == Rounding::Nearest,
                "stochastic rounding cannot fuse into a pack; "
                "materialize the operand first");
    SNIP_ASSERT(cfg.format.name != "bf16",
                "bf16 operands take the passthrough path");
    computeRegionScales(kt, src, regions, cfg.format.maxValue(), scale,
                        inv);
    bindOperandQuant(oq, cfg, regions, scale, inv);
}

// ------------------------------------------------------------ driver

/**
 * Rows [i0, i1) — one M-block — of C (+)= A * Bp. The block's A strips
 * are packed into the calling thread's arena (fused-quantizing under
 * @p aq) and streamed through the strip microkernel. A block shorter
 * than one strip with nothing to quantize (decode rows, the ragged end
 * of a batch item) is read in place instead: the pack would only copy
 * it. Both forms run the same per-element FMA chain.
 */
void
gemmBlock(const simd::KernelTable &kt, const float *a, int64_t a_ld,
          bool a_k_major, const simd::PackQuant *aq, const float *bp,
          float *c, int64_t i0, int64_t i1, int64_t n, int64_t k,
          bool accumulate)
{
    const int64_t mb = i1 - i0;
    float *cb = c + i0 * n;
    if (!accumulate)
        std::memset(cb, 0, sizeof(float) * static_cast<size_t>(mb * n));
    if (aq == nullptr && mb < kGemmPackMR) {
        if (a_k_major)
            kt.gemmStrip(a + i0, 1, a_ld, bp, cb, n, mb, n, k);
        else
            kt.gemmStrip(a + i0 * a_ld, a_ld, 1, bp, cb, n, mb, n, k);
        return;
    }
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    // +8: PackAFn transpose-store headroom (kernels.h).
    float *ap = arena.getFloats(static_cast<size_t>(
        packStrips(mb, kGemmPackMR) * kGemmPackMR * k + 8));
    kt.packA(a, a_ld, a_k_major, ap, i0, i1, k, aq);
    for (int64_t r0 = 0; r0 < mb; r0 += kGemmPackMR)
        kt.gemmStrip(ap + r0 * k, 1, kGemmPackMR, bp, cb + r0 * n, n,
                     std::min(kGemmPackMR, mb - r0), n, k);
}

/** One GEMM invocation (lambdas capture a pointer to this). */
struct PackedCtx
{
    const simd::KernelTable *kt;
    const float *a;
    int64_t a_ld;
    bool a_k_major;
    const float *b;
    int64_t b_ld;
    bool b_k_major;
    float *c;
    int64_t m, n, k;
    bool accumulate;
    const float *bp = nullptr;
    float *bp_mut = nullptr;
    const simd::PackQuant *aq = nullptr;
    const simd::PackQuant *bq = nullptr;
};

/** Pack the whole B operand into bp_mut, strips fanned over the pool
 *  (pure copies + grid snaps: deterministic under any partition). */
void
packBPhase(const PackedCtx *ctx)
{
    const int64_t strips = packStrips(ctx->n, kGemmPackNR);
    runtime::parallelFor(
        0, strips, packGrain(kGemmPackNR * ctx->k),
        [ctx](int64_t s0, int64_t s1) {
            const int64_t j0 = s0 * kGemmPackNR;
            const int64_t j1 =
                std::min(ctx->n, s1 * kGemmPackNR);
            ctx->kt->packB(ctx->b, ctx->b_ld, ctx->b_k_major,
                           ctx->bp_mut, j0, j1, ctx->n, ctx->k,
                           ctx->bq);
        });
}

/** Fan the M-blocks of C over the pool against the packed B panel. */
void
gemmPhase(const PackedCtx *ctx)
{
    runtime::parallelFor(
        0, mBlocks(ctx->m), 1, [ctx](int64_t b0, int64_t b1) {
            for (int64_t bi = b0; bi < b1; ++bi) {
                const int64_t i0 = bi * simd::kGemmBlockM;
                gemmBlock(*ctx->kt, ctx->a, ctx->a_ld, ctx->a_k_major,
                          ctx->aq, ctx->bp, ctx->c, i0,
                          std::min(i0 + simd::kGemmBlockM, ctx->m),
                          ctx->n, ctx->k, ctx->accumulate);
            }
        });
}

// ------------------------------------------------ packed-weight cache

/**
 * Weight-pack epoch. 0 means "no weight mutator has ever announced
 * itself": until the first invalidateWeightPacks() call (optimizer
 * step, checkpoint restore) the single-writer discipline the implicit
 * per-layer caches rely on is not established — code that mutates
 * weights through raw ParamRef pointers without telling anyone (e.g.
 * finite-difference gradient checks) is then still correct, because
 * Linear only hands its cache to the GEMM once the epoch is non-zero.
 * Explicit PackedWeightCache users (benches, tests) opt in regardless.
 */
std::atomic<uint64_t> g_weight_epoch{0};

uint64_t
policyKey(const QuantConfig *cfg)
{
    if (cfg == nullptr)
        return 0;
    uint64_t h = 1469598103934665603ull; // FNV-1a
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (char ch : cfg->format.name)
        mix(static_cast<uint64_t>(static_cast<unsigned char>(ch)));
    mix(static_cast<uint64_t>(cfg->scaling.granularity));
    mix(static_cast<uint64_t>(cfg->scaling.block));
    mix(static_cast<uint64_t>(cfg->rounding));
    return h | 1; // never collides with the "no quantization" key 0
}

} // namespace

struct PackedWeightCache::Impl
{
    /** One packed panel + its scale tables for one GEMM orientation of
     *  the weight (0 = NT B operand, 1 = NN B operand). */
    struct Slot
    {
        std::vector<float> packed, scale, inv;
        bool valid = false;
        uint64_t epoch = 0;
        uint64_t key = 0;
        int64_t n = 0, k = 0;
        int64_t src_rows = 0, src_cols = 0;
    };
    util::Mutex mu;
    Slot slots[2] SNIP_GUARDED_BY(mu);
    /** Epoch in which a mutable weight reference escaped (non-const
     *  Linear::weight()): implicit caching stays off until the next
     *  epoch re-establishes the single-writer discipline. ~0 = never.
     *  Atomic (not mu-guarded) so implicitCachingActive() can poll it
     *  from the hot path without taking the cache lock. */
    std::atomic<uint64_t> disabled_epoch{~uint64_t{0}};
};

PackedWeightCache::PackedWeightCache() : impl_(new Impl) {}
PackedWeightCache::~PackedWeightCache() = default;

void
PackedWeightCache::invalidate()
{
    util::MutexLock lk(impl_->mu);
    impl_->slots[0].valid = false;
    impl_->slots[1].valid = false;
    // Release pairs with the acquire in implicitCachingActive(): a
    // thread that observes the new disabled_epoch also observes the
    // slot invalidation above.
    impl_->disabled_epoch.store(
        g_weight_epoch.load(std::memory_order_acquire),
        std::memory_order_release);
}

bool
PackedWeightCache::implicitCachingActive() const
{
    const uint64_t epoch =
        g_weight_epoch.load(std::memory_order_acquire);
    return epoch > 0 &&
           impl_->disabled_epoch.load(std::memory_order_acquire) !=
               epoch;
}

void
invalidateWeightPacks()
{
    g_weight_epoch.fetch_add(1, std::memory_order_acq_rel);
}

namespace {

/**
 * Return the packed B panel for a cached weight, (re)building it when
 * stale. The scale pass is shared with the sibling orientation when
 * its policy and epoch agree — the weight is then quantized once per
 * step even though both orientations pack it. Buffers are retained
 * across epochs, so a steady-state repack allocates nothing.
 *
 * The rebuild itself runs outside the cache lock: the scale pass and
 * packBPhase fan out over the pool, whose submitter holds the pool's
 * submit lock while it runs chunks — and a chunk may run this layer
 * (a sharded eval), so holding the cache lock across a parallelFor
 * would invert the two locks' order. A layer runs one GEMM at a time,
 * so nothing else touches the slot while it is rebuilt.
 */
const float *
cachedPackB(PackedWeightCache *cache, int orient, PackedCtx *ctx,
            const QuantConfig *cfg, int64_t src_rows, int64_t src_cols)
{
    PackedWeightCache::Impl &impl = cache->impl();
    const uint64_t epoch =
        g_weight_epoch.load(std::memory_order_acquire);
    const uint64_t key = policyKey(cfg);
    const RegionGrid regions =
        cfg != nullptr ? RegionGrid(src_rows, src_cols, cfg->scaling)
                       : RegionGrid();
    float *packed = nullptr, *scale = nullptr, *inv = nullptr;
    bool shared_scales = false;
    {
        util::MutexLock lk(impl.mu);
        PackedWeightCache::Impl::Slot &slot = impl.slots[orient];
        if (slot.valid && slot.epoch == epoch && slot.key == key &&
            slot.n == ctx->n && slot.k == ctx->k) {
            telemetry::count(telemetry::Counter::PackCacheHits);
            return slot.packed.data();
        }
        telemetry::count(telemetry::Counter::PackCacheRebuilds);
        slot.valid = false;
        slot.packed.resize(static_cast<size_t>(
            packStrips(ctx->n, kGemmPackNR) * kGemmPackNR * ctx->k));
        packed = slot.packed.data();
        if (cfg != nullptr) {
            slot.scale.resize(static_cast<size_t>(regions.count()));
            slot.inv.resize(static_cast<size_t>(regions.count()));
            scale = slot.scale.data();
            inv = slot.inv.data();
            const PackedWeightCache::Impl::Slot &other =
                impl.slots[1 - orient];
            if (other.valid && other.epoch == epoch && other.key == key &&
                other.src_rows == src_rows &&
                other.src_cols == src_cols &&
                other.scale.size() == slot.scale.size()) {
                // Sibling orientation already quantized this weight
                // under the same policy this step: reuse its scales.
                std::copy(other.scale.begin(), other.scale.end(),
                          slot.scale.begin());
                std::copy(other.inv.begin(), other.inv.end(),
                          slot.inv.begin());
                shared_scales = true;
            }
        }
    }
    OperandQuant bq;
    if (cfg != nullptr) {
        if (shared_scales)
            bindOperandQuant(bq, *cfg, regions, scale, inv);
        else
            setupOperandQuant(bq, *ctx->kt, *cfg, ctx->b, regions, scale,
                              inv);
        ctx->bq = &bq.pq;
    }
    ctx->bp_mut = packed;
    packBPhase(ctx);
    ctx->bq = nullptr;
    ctx->bp_mut = nullptr;
    util::MutexLock lk(impl.mu);
    PackedWeightCache::Impl::Slot &slot = impl.slots[orient];
    slot.valid = true;
    slot.epoch = epoch;
    slot.key = key;
    slot.n = ctx->n;
    slot.k = ctx->k;
    slot.src_rows = src_rows;
    slot.src_cols = src_cols;
    return packed;
}

/**
 * The GEMM driver. Source layouts per variant:
 *   NT: A = src[M,K] (row-major), B = src[N,K]  -> b_k_major = false
 *   NN: A = src[M,K],             B = src[K,N]  -> b_k_major = true
 *   TN: A = src[K,M] (a_k_major), B = src[K,N]
 * (a_rows, a_cols) / (b_rows, b_cols) are SOURCE dims — the geometry
 * fake quantization is defined on.
 */
void
packedGemm(const float *a, int64_t a_ld, bool a_k_major, int64_t a_rows,
           int64_t a_cols, const QuantConfig *aq_cfg, const float *b,
           int64_t b_ld, bool b_k_major, int64_t b_rows, int64_t b_cols,
           const QuantConfig *bq_cfg, PackedWeightCache *bcache,
           int orient, float *c, int64_t m, int64_t n, int64_t k,
           bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    if (k <= 0) {
        if (!accumulate)
            std::memset(c, 0,
                        sizeof(float) * static_cast<size_t>(m * n));
        return;
    }
    telemetry::Scope span(telemetry::Timer::Gemm, "gemm", "m", m, "n", n);
    telemetry::count(telemetry::Counter::GemmCalls);
    telemetry::count(telemetry::Counter::GemmFlops, 2 * m * n * k);
    const simd::KernelTable &kt = simd::activeKernels();
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);

    PackedCtx ctx;
    ctx.kt = &kt;
    ctx.a = a;
    ctx.a_ld = a_ld;
    ctx.a_k_major = a_k_major;
    ctx.b = b;
    ctx.b_ld = b_ld;
    ctx.b_k_major = b_k_major;
    ctx.c = c;
    ctx.m = m;
    ctx.n = n;
    ctx.k = k;
    ctx.accumulate = accumulate;

    OperandQuant aq;
    if (aq_cfg != nullptr) {
        const RegionGrid regions(a_rows, a_cols, aq_cfg->scaling);
        const size_t nreg = static_cast<size_t>(regions.count());
        float *scale = arena.getFloats(nreg);
        float *inv = arena.getFloats(nreg);
        setupOperandQuant(aq, kt, *aq_cfg, a, regions, scale, inv);
        ctx.aq = &aq.pq;
    }

    if (bcache != nullptr) {
        ctx.bp = cachedPackB(bcache, orient, &ctx, bq_cfg, b_rows,
                             b_cols);
    } else {
        OperandQuant bq;
        if (bq_cfg != nullptr) {
            const RegionGrid regions(b_rows, b_cols, bq_cfg->scaling);
            const size_t nreg = static_cast<size_t>(regions.count());
            float *scale = arena.getFloats(nreg);
            float *inv = arena.getFloats(nreg);
            setupOperandQuant(bq, kt, *bq_cfg, b, regions, scale, inv);
            ctx.bq = &bq.pq;
        }
        float *bp = arena.getFloats(static_cast<size_t>(
            packStrips(n, kGemmPackNR) * kGemmPackNR * k));
        ctx.bp_mut = bp;
        packBPhase(&ctx);
        ctx.bq = nullptr;
        ctx.bp = bp;
    }
    gemmPhase(&ctx);
}

// ------------------------------------------------- strided-batch path

/** One strided-batch GEMM invocation (lambdas capture a pointer). */
struct BatchedCtx
{
    const simd::KernelTable *kt;
    const float *a;
    int64_t a_stride, a_ld;
    bool a_k_major;
    const float *b;
    int64_t b_stride, b_ld;
    bool b_k_major;
    float *c;
    int64_t c_stride;
    int64_t count, m, n, k, group;
    bool accumulate;
    float *bp = nullptr; ///< per-group packed B panels (NT/NN)
    int64_t bp_stride = 0;
};

/** One batch item against an already-packed B panel: the M-blocks
 *  gemmPhase would issue, run serially (the worker owns the whole
 *  item), so per-element accumulation order matches the per-item
 *  entry points exactly. */
void
runItem(const BatchedCtx *ctx, const float *a, const float *bp, float *c,
        bool accumulate)
{
    for (int64_t i0 = 0; i0 < ctx->m; i0 += simd::kGemmBlockM)
        gemmBlock(*ctx->kt, a, ctx->a_ld, ctx->a_k_major, nullptr, bp, c,
                  i0, std::min(i0 + simd::kGemmBlockM, ctx->m), ctx->n,
                  ctx->k, accumulate);
}

/** Shared NT/NN batched driver: pack each group's shared B once
 *  (phase 1), then fan whole items over the pool (phase 2). */
void
gemmBatchedStreamB(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, int64_t b_ld, bool b_k_major,
                   float *c, int64_t c_stride, int64_t count, int64_t m,
                   int64_t n, int64_t k, int64_t group, bool accumulate)
{
    if (count <= 0 || m <= 0 || n <= 0)
        return;
    SNIP_ASSERT(group >= 1 && count % group == 0,
                "batched GEMM: count must be a multiple of group");
    if (k <= 0) {
        if (!accumulate)
            for (int64_t i = 0; i < count; ++i)
                std::memset(c + i * c_stride, 0,
                            sizeof(float) * static_cast<size_t>(m * n));
        return;
    }
    telemetry::Scope span(telemetry::Timer::Gemm, "gemm_batched",
                          "items", count, "m", m);
    telemetry::count(telemetry::Counter::GemmCalls);
    telemetry::count(telemetry::Counter::GemmBatchedItems, count);
    telemetry::count(telemetry::Counter::GemmFlops,
                     2 * count * m * n * k);
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    BatchedCtx ctx;
    ctx.kt = &simd::activeKernels();
    ctx.a = a;
    ctx.a_stride = a_stride;
    ctx.a_ld = k;
    ctx.a_k_major = false;
    ctx.b = b;
    ctx.b_stride = b_stride;
    ctx.b_ld = b_ld;
    ctx.b_k_major = b_k_major;
    ctx.c = c;
    ctx.c_stride = c_stride;
    ctx.count = count;
    ctx.m = m;
    ctx.n = n;
    ctx.k = k;
    ctx.group = group;
    ctx.accumulate = accumulate;
    ctx.bp_stride = packStrips(n, kGemmPackNR) * kGemmPackNR * k;
    ctx.bp = arena.getFloats(
        static_cast<size_t>((count / group) * ctx.bp_stride));
    const BatchedCtx *pc = &ctx;
    runtime::parallelFor(
        0, count / group, packGrain(ctx.bp_stride),
        [pc](int64_t g0, int64_t g1) {
            for (int64_t g = g0; g < g1; ++g)
                pc->kt->packB(pc->b + g * pc->b_stride, pc->b_ld,
                              pc->b_k_major, pc->bp + g * pc->bp_stride,
                              0, pc->n, pc->n, pc->k, nullptr);
        });
    runtime::parallelFor(0, count, 1, [pc](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            runItem(pc, pc->a + i * pc->a_stride,
                    pc->bp + (i / pc->group) * pc->bp_stride,
                    pc->c + i * pc->c_stride, pc->accumulate);
    });
}

} // namespace

// ------------------------------------------------------- entry points

void
gemmNT(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    gemmPackedNT(a, m, k, nullptr, b, n, nullptr, nullptr, c, accumulate);
}

void
gemmNN(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    gemmPackedNN(a, m, k, nullptr, b, n, nullptr, nullptr, c, accumulate);
}

void
gemmTN(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    gemmPackedTN(a, m, k, nullptr, b, n, nullptr, c, accumulate);
}

void
gemmPrepackedB(const float *a, int64_t m, int64_t k, const float *bp,
               int64_t n, float *c)
{
    if (m <= 0 || n <= 0)
        return;
    telemetry::Scope span(telemetry::Timer::Gemm, "gemm", "m", m, "n", n);
    telemetry::count(telemetry::Counter::GemmCalls);
    telemetry::count(telemetry::Counter::GemmFlops, 2 * m * n * k);
    PackedCtx ctx;
    ctx.kt = &simd::activeKernels();
    ctx.a = a;
    ctx.a_ld = k;
    ctx.a_k_major = false;
    ctx.b = nullptr;
    ctx.b_ld = 0;
    ctx.b_k_major = false;
    ctx.c = c;
    ctx.m = m;
    ctx.n = n;
    ctx.k = k;
    ctx.accumulate = false;
    ctx.bp = bp;
    gemmPhase(&ctx);
}

void
gemmBatchedNT(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    gemmBatchedStreamB(a, a_stride, b, b_stride, /*b_ld=*/k,
                       /*b_k_major=*/false, c, c_stride, count, m, n, k,
                       group, accumulate);
}

void
gemmBatchedNN(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    gemmBatchedStreamB(a, a_stride, b, b_stride, /*b_ld=*/n,
                       /*b_k_major=*/true, c, c_stride, count, m, n, k,
                       group, accumulate);
}

void
gemmBatchedTN(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    if (count <= 0 || m <= 0 || n <= 0)
        return;
    SNIP_ASSERT(group >= 1 && count % group == 0,
                "batched GEMM: count must be a multiple of group");
    const int64_t groups = count / group;
    if (k <= 0) {
        if (!accumulate)
            for (int64_t g = 0; g < groups; ++g)
                std::memset(c + g * c_stride, 0,
                            sizeof(float) * static_cast<size_t>(m * n));
        return;
    }
    telemetry::Scope span(telemetry::Timer::Gemm, "gemm_batched_grouped",
                          "items", count, "m", m);
    telemetry::count(telemetry::Counter::GemmCalls);
    telemetry::count(telemetry::Counter::GemmBatchedItems, count);
    telemetry::count(telemetry::Counter::GemmFlops,
                     2 * count * m * n * k);
    BatchedCtx ctx;
    ctx.kt = &simd::activeKernels();
    ctx.a = a;
    ctx.a_stride = a_stride;
    ctx.a_ld = m;
    ctx.a_k_major = true;
    ctx.b = b;
    ctx.b_stride = b_stride;
    ctx.b_ld = n;
    ctx.b_k_major = true;
    ctx.c = c;
    ctx.c_stride = c_stride;
    ctx.count = count;
    ctx.m = m;
    ctx.n = n;
    ctx.k = k;
    ctx.group = group;
    ctx.accumulate = accumulate;
    const BatchedCtx *pc = &ctx;
    // Workers own whole GROUPS: the items of a group reduce into the
    // group's shared C sequentially (each item's product is fully
    // formed in scratch, then added — the fixed per-kv-head order a
    // serial compute-then-scatter-add loop uses), so the reduction is
    // bit-identical for any thread count. Both TN operands change per
    // item, so each item packs its own B.
    runtime::parallelFor(0, groups, 1, [pc](int64_t g0, int64_t g1) {
        runtime::WorkspaceArena &arena =
            runtime::WorkspaceArena::forCurrentThread();
        const int64_t numel = pc->m * pc->n;
        for (int64_t g = g0; g < g1; ++g) {
            float *cg = pc->c + g * pc->c_stride;
            if (!pc->accumulate)
                std::memset(cg, 0,
                            sizeof(float) * static_cast<size_t>(numel));
            runtime::ArenaScope scope(arena);
            float *tmp = arena.getFloats(static_cast<size_t>(numel));
            float *bp = arena.getFloats(static_cast<size_t>(
                packStrips(pc->n, kGemmPackNR) * kGemmPackNR * pc->k));
            for (int64_t t = 0; t < pc->group; ++t) {
                const int64_t i = g * pc->group + t;
                pc->kt->packB(pc->b + i * pc->b_stride, pc->b_ld,
                              pc->b_k_major, bp, 0, pc->n, pc->n, pc->k,
                              nullptr);
                runItem(pc, pc->a + i * pc->a_stride, bp, tmp,
                        /*accumulate=*/false);
                for (int64_t e = 0; e < numel; ++e)
                    cg[e] += tmp[e];
            }
        }
    });
}

void
gemmPackedNT(const float *a, int64_t m, int64_t k, const QuantConfig *aq,
             const float *b, int64_t n, const QuantConfig *bq,
             PackedWeightCache *bcache, float *c, bool accumulate)
{
    packedGemm(a, k, /*a_k_major=*/false, m, k, aq, b, k,
               /*b_k_major=*/false, n, k, bq, bcache, /*orient=*/0, c,
               m, n, k, accumulate);
}

void
gemmPackedNN(const float *a, int64_t m, int64_t k, const QuantConfig *aq,
             const float *b, int64_t n, const QuantConfig *bq,
             PackedWeightCache *bcache, float *c, bool accumulate)
{
    packedGemm(a, k, /*a_k_major=*/false, m, k, aq, b, n,
               /*b_k_major=*/true, k, n, bq, bcache, /*orient=*/1, c, m,
               n, k, accumulate);
}

void
gemmPackedTN(const float *a, int64_t m, int64_t k, const QuantConfig *aq,
             const float *b, int64_t n, const QuantConfig *bq, float *c,
             bool accumulate)
{
    packedGemm(a, m, /*a_k_major=*/true, k, m, aq, b, n,
               /*b_k_major=*/true, k, n, bq, /*bcache=*/nullptr,
               /*orient=*/0, c, m, n, k, accumulate);
}

// ---------------------------------------------------- Tensor wrappers

Tensor
matmulNT(const Tensor &x, const Tensor &w)
{
    SNIP_ASSERT(x.rank() == 2 && w.rank() == 2);
    SNIP_ASSERT(x.size(1) == w.size(1), "inner dimensions disagree");
    Tensor y(x.size(0), w.size(0));
    gemmNT(x.data(), w.data(), y.data(), x.size(0), w.size(0), x.size(1));
    return y;
}

Tensor
matmulNN(const Tensor &a, const Tensor &b)
{
    SNIP_ASSERT(a.rank() == 2 && b.rank() == 2);
    SNIP_ASSERT(a.size(1) == b.size(0), "inner dimensions disagree");
    Tensor y(a.size(0), b.size(1));
    gemmNN(a.data(), b.data(), y.data(), a.size(0), b.size(1), a.size(1));
    return y;
}

Tensor
matmulTN(const Tensor &a, const Tensor &b)
{
    SNIP_ASSERT(a.rank() == 2 && b.rank() == 2);
    SNIP_ASSERT(a.size(0) == b.size(0), "inner dimensions disagree");
    Tensor y(a.size(1), b.size(1));
    gemmTN(a.data(), b.data(), y.data(), a.size(1), b.size(1), a.size(0));
    return y;
}

Tensor
quantMatmulNT(const Tensor &x, const QuantConfig *xq, const Tensor &w,
              const QuantConfig *wq, PackedWeightCache *wcache)
{
    SNIP_ASSERT(x.rank() == 2 && w.rank() == 2);
    SNIP_ASSERT(x.size(1) == w.size(1), "inner dimensions disagree");
    Tensor y(x.size(0), w.size(0));
    gemmPackedNT(x.data(), x.size(0), x.size(1), xq, w.data(), w.size(0),
                 wq, wcache, y.data());
    return y;
}

Tensor
quantMatmulNN(const Tensor &dy, const QuantConfig *dq, const Tensor &w,
              const QuantConfig *wq, PackedWeightCache *wcache)
{
    SNIP_ASSERT(dy.rank() == 2 && w.rank() == 2);
    SNIP_ASSERT(dy.size(1) == w.size(0), "inner dimensions disagree");
    Tensor y(dy.size(0), w.size(1));
    gemmPackedNN(dy.data(), dy.size(0), dy.size(1), dq, w.data(),
                 w.size(1), wq, wcache, y.data());
    return y;
}

void
quantGemmTN(const Tensor &dy, const QuantConfig *dq, const Tensor &x,
            const QuantConfig *xq, Tensor &dw, bool accumulate)
{
    SNIP_ASSERT(dy.rank() == 2 && x.rank() == 2);
    SNIP_ASSERT(dy.size(0) == x.size(0), "inner dimensions disagree");
    SNIP_ASSERT(dw.rank() == 2 && dw.size(0) == dy.size(1) &&
                dw.size(1) == x.size(1));
    gemmPackedTN(dy.data(), dy.size(1), dy.size(0), dq, x.data(),
                 x.size(1), xq, dw.data(), accumulate);
}

} // namespace snip
