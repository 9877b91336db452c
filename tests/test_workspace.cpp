/**
 * @file
 * WorkspaceArena behavior and the packed GEMM path's zero-allocation
 * contract.
 *
 * This binary overrides the global allocation operators with counting
 * wrappers, so tests can assert that a warmed-up packed GEMM — pack,
 * fused quantization, workspace staging, thread-pool submission —
 * touches the heap exactly zero times on the serial path, and at most
 * a recycled-Job allocation on the threaded path.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "nn/attention.h"
#include "quant/quantizer.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace_arena.h"
#include "tensor/gemm.h"
#include "testing_util.h"
#include "util/rng.h"

namespace {
std::atomic<int64_t> g_allocs{0};
}

// Counting allocation operators (all flavors the library can reach:
// plain, array, and the aligned forms the arena uses).
void *
operator new(size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    // std::stable_sort's temporary buffer (and anything else using
    // the nothrow flavor) must allocate through the counting wrapper
    // too, or its storage would come from the default (possibly
    // sanitizer-intercepted) new yet be freed by our delete.
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void *
operator new(size_t n, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<size_t>(align), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace snip {
namespace {

int64_t
allocDelta(const std::function<void()> &fn)
{
    const int64_t before = g_allocs.load();
    fn();
    return g_allocs.load() - before;
}

TEST(WorkspaceArena, AlignedBumpAndReuse)
{
    runtime::WorkspaceArena arena;
    float *a = arena.getFloats(100);
    float *b = arena.getFloats(1000);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
    EXPECT_NE(a, b);
    arena.reset();
    // Same slab, same offsets after a reset.
    EXPECT_EQ(arena.getFloats(100), a);
    EXPECT_EQ(arena.getFloats(1000), b);
}

TEST(WorkspaceArena, ScopeRewindsWatermark)
{
    runtime::WorkspaceArena arena;
    float *outer = arena.getFloats(64);
    const size_t used = arena.used();
    {
        runtime::ArenaScope scope(arena);
        float *inner = arena.getFloats(256);
        EXPECT_NE(inner, nullptr);
        EXPECT_GT(arena.used(), used);
    }
    EXPECT_EQ(arena.used(), used);
    // The next request lands right where the scope's first one did
    // (64 floats = 256 bytes, already 64-byte aligned).
    outer[0] = 1.0f;
    EXPECT_EQ(arena.getFloats(16), outer + 64);
}

TEST(WorkspaceArena, SpillsCoalesceIntoOneSlab)
{
    runtime::WorkspaceArena arena;
    (void)arena.getFloats(1 << 18); // within the 1 MiB min slab
    (void)arena.getFloats(1 << 20); // forces a spill
    const size_t reserved = arena.reservedBytes();
    EXPECT_GE(reserved, ((1u << 18) + (1u << 20)) * sizeof(float));
    arena.reset();
    const int64_t allocs_after_coalesce = arena.allocCount();
    // The whole episode now fits the coalesced slab: no more growth.
    (void)arena.getFloats(1 << 18);
    (void)arena.getFloats(1 << 20);
    arena.reset();
    EXPECT_EQ(arena.allocCount(), allocs_after_coalesce);
}

TEST(WorkspaceArena, SteadyStateGemmAllocatesNothing)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);

    // 150 rows pack their A strips; 3 decode rows read A in place.
    for (const auto &[m, k] : {std::make_pair(int64_t{150}, int64_t{170}),
                               std::make_pair(int64_t{3}, int64_t{20})}) {
        SCOPED_TRACE(m);
        const int64_t n = 130;
        Rng rng(3);
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b_nt = Tensor::randn({n, k}, rng);
        Tensor b_nn = Tensor::randn({k, n}, rng);
        Tensor a_tn = Tensor::randn({k, m}, rng);
        std::vector<float> c(static_cast<size_t>(m * n));

        auto run = [&] {
            gemmNT(a.data(), b_nt.data(), c.data(), m, n, k);
            gemmNN(a.data(), b_nn.data(), c.data(), m, n, k);
            gemmTN(a_tn.data(), b_nn.data(), c.data(), m, n, k);
        };
        run();
        run(); // warm: arenas sized, pool job recycled
        EXPECT_EQ(allocDelta(run), 0)
            << "steady-state GEMMs must not touch the heap";
    }
}

TEST(WorkspaceArena, SteadyStateFusedQuantGemmAllocatesNothing)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);

    const int64_t m = 96, n = 80, k = 140;
    Rng rng(4);
    Tensor x = Tensor::randn({m, k}, rng);
    Tensor w = Tensor::randn({n, k}, rng);
    std::vector<float> y(static_cast<size_t>(m * n));
    const QuantConfig xq =
        rolePolicy(Precision::FP8, TensorRole::Activation);
    const QuantConfig wq = rolePolicy(Precision::FP8, TensorRole::Weight);
    PackedWeightCache cache;

    auto fwd = [&] {
        gemmPackedNT(x.data(), m, k, &xq, w.data(), n, &wq, &cache,
                     y.data());
    };
    fwd();
    fwd();
    // Cache-hit steady state: zero heap traffic.
    EXPECT_EQ(allocDelta(fwd), 0)
        << "fused quantize-on-pack forward must not touch the heap";
    // Steady-state repack (optimizer stepped, buffers retained): the
    // pack runs again but every buffer is reused.
    auto stepped = [&] {
        invalidateWeightPacks();
        fwd();
    };
    stepped();
    EXPECT_EQ(allocDelta(stepped), 0)
        << "steady-state weight repack must not touch the heap";
}

TEST(WorkspaceArena, WarmedFakeQuantizeInPlaceAllocatesNothing)
{
    // The in-place quantizer indexes regions arithmetically and hands
    // the pool a pointer-sized body, so once the pool's Job is warm a
    // call touches the heap zero times — every role policy, nearest
    // and stochastic rounding alike.
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);

    Rng rng(7);
    Tensor x = Tensor::randn({130, 200}, rng);
    FakeQuantizer q(8);
    for (const Precision p :
         {Precision::BF16, Precision::FP8, Precision::FP6, Precision::FP4})
        for (const TensorRole role :
             {TensorRole::Activation, TensorRole::Weight,
              TensorRole::OutputGrad}) {
            const QuantConfig cfg = rolePolicy(p, role);
            SCOPED_TRACE(cfg.describe());
            Tensor t = x;
            auto quantize = [&] { q.quantizeInPlace(t, cfg); };
            quantize();
            quantize();
            EXPECT_EQ(allocDelta(quantize), 0)
                << "warmed quantizeInPlace must not touch the heap";
        }
}

TEST(WorkspaceArena, SteadyStateAttentionStepAllocatesNothing)
{
    // The attention runtime's zero-alloc contract: a warmed-up
    // forward + backward of the attention core — gathers, strided-
    // batch GEMMs, fused softmax, scatters — touches the heap exactly
    // zero times, for two GQA group sizes. All scratch lives in
    // workspace arenas.
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);

    for (const int64_t heads : {4, 8}) {
        SCOPED_TRACE(heads);
        const AttnShape s{/*batch=*/2, /*seq=*/32, /*n_heads=*/heads,
                          /*n_kv_heads=*/2, /*head_dim=*/16};
        Rng rng(6);
        Tensor q = Tensor::randn(
            {s.batch * s.seq, s.n_heads * s.head_dim}, rng);
        Tensor k = Tensor::randn(
            {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
        Tensor v = Tensor::randn(
            {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
        Tensor dctx = Tensor::randn(
            {s.batch * s.seq, s.n_heads * s.head_dim}, rng);
        Tensor probs(s.batch * s.n_heads * s.seq, s.seq);
        Tensor ctx(s.batch * s.seq, s.n_heads * s.head_dim);
        Tensor dq(s.batch * s.seq, s.n_heads * s.head_dim);
        Tensor dk(s.batch * s.seq, s.n_kv_heads * s.head_dim);
        Tensor dv(s.batch * s.seq, s.n_kv_heads * s.head_dim);

        auto step = [&] {
            attentionForwardCore(s, q.data(), k.data(), v.data(),
                                 probs.data(), ctx.data());
            dq.zero();
            dk.zero();
            dv.zero();
            attentionBackwardCore(s, q.data(), k.data(), v.data(),
                                  probs.data(), dctx.data(), dq.data(),
                                  dk.data(), dv.data());
        };
        step();
        step(); // warm: arenas sized for this shape
        EXPECT_EQ(allocDelta(step), 0)
            << "steady-state attention step must not touch the heap";
    }
}

TEST(WorkspaceArena, ThreadedSteadyStateStaysRecycled)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(4);

    const int64_t m = 200, n = 120, k = 160;
    Rng rng(5);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    std::vector<float> c(static_cast<size_t>(m * n));
    auto run = [&] { gemmNT(a.data(), b.data(), c.data(), m, n, k); };
    for (int i = 0; i < 6; ++i)
        run(); // warm every worker's arena and the recycled Job
    // A straggling worker can force at most one fresh Job per
    // parallelFor (two per packed GEMM: pack phase + gemm phase);
    // everything else — panels, scales, workspaces — is recycled.
    EXPECT_LE(allocDelta(run), 2);
}

} // namespace
} // namespace snip
