/**
 * @file
 * Serving runtime tests: decode-vs-full-sequence bit-identity (FP32 KV
 * cache), FP8 KV tolerance, thread-count determinism, page free-list
 * reuse, continuous-batching equivalence, and the zero-allocation
 * contract of a warmed decode step (counting-operator-new harness, as
 * in test_workspace.cpp).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "nn/model.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/request_queue.h"
#include "testing_util.h"
#include "train/presets.h"

namespace {
std::atomic<int64_t> g_allocs{0};
}

// Counting allocation operators (all flavors the library can reach).
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

ModelConfig
microModel()
{
    ModelConfig m = tinyTestModel();
    m.n_blocks = 2;
    m.d_model = 16;
    m.ffn_hidden = 24;
    m.vocab_size = 32;
    m.n_heads = 4;
    m.n_kv_heads = 2; // exercise GQA in the decode path
    m.max_seq = 32;
    m.init_std = 0.3f;
    return m;
}

std::vector<int32_t>
someTokens(int64_t n, int64_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> t;
    for (int64_t i = 0; i < n; ++i)
        t.push_back(static_cast<int32_t>(
            rng.nextBelow(static_cast<uint64_t>(vocab))));
    return t;
}

serve::KvCacheConfig
cacheConfigFor(const ModelConfig &m, serve::KvCacheMode mode,
               int64_t max_seqs = 2, int64_t page_tokens = 4)
{
    serve::KvCacheConfig kc;
    kc.n_layers = m.n_blocks;
    kc.n_kv_heads = m.n_kv_heads;
    kc.head_dim = m.headDim();
    kc.page_tokens = page_tokens;
    kc.max_seqs = max_seqs;
    kc.max_seq_tokens = m.max_seq;
    kc.max_pages = max_seqs * m.n_blocks *
                   ((m.max_seq + page_tokens - 1) / page_tokens);
    kc.mode = mode;
    return kc;
}

/**
 * Greedy-decode @p steps tokens after prefilling @p prompt, returning
 * every decode-step logits row (steps x vocab). When @p forced is
 * non-null the generated token is overridden (teacher forcing), so
 * FP8-cache logits can be compared against an FP32 trajectory.
 */
std::vector<std::vector<float>>
decodeTrajectory(LlamaModel &model, const std::vector<int32_t> &prompt,
                 int64_t steps, serve::KvCacheMode mode,
                 std::vector<int32_t> *generated,
                 const std::vector<int32_t> *forced = nullptr)
{
    const int64_t vocab = model.config().vocab_size;
    serve::KvCache cache(cacheConfigFor(model.config(), mode));
    const int64_t sid = 0;
    cache.beginSequence(sid);
    KvCacheHandle h;
    h.cache = &cache;
    h.seq_ids = &sid;
    h.count = 1;

    Tensor plog =
        model.forward(prompt, 1, static_cast<int64_t>(prompt.size()),
                      ForwardMode::Prefill, h);
    const float *last =
        plog.data() + (static_cast<int64_t>(prompt.size()) - 1) * vocab;
    int32_t tok = 0;
    for (int64_t v = 1; v < vocab; ++v)
        if (last[v] > last[tok])
            tok = static_cast<int32_t>(v);
    if (forced)
        tok = (*forced)[0];
    if (generated)
        generated->push_back(tok);

    std::vector<std::vector<float>> rows;
    std::vector<float> logits(static_cast<size_t>(vocab));
    for (int64_t s = 0; s < steps; ++s) {
        model.decodeStep(&tok, 1, h, logits.data());
        rows.push_back(logits);
        tok = 0;
        for (int64_t v = 1; v < vocab; ++v)
            if (logits[static_cast<size_t>(v)] >
                logits[static_cast<size_t>(tok)])
                tok = static_cast<int32_t>(v);
        if (forced)
            tok = (*forced)[static_cast<size_t>(s + 1)];
        if (generated)
            generated->push_back(tok);
    }
    cache.endSequence(sid);
    return rows;
}

/** Full-sequence (Train-mode) logits row for the last position of
 *  @p tokens — the decode reference. */
std::vector<float>
fullSeqLastRow(LlamaModel &model, const std::vector<int32_t> &tokens)
{
    const int64_t len = static_cast<int64_t>(tokens.size());
    const int64_t vocab = model.config().vocab_size;
    Tensor logits = model.forward(tokens, 1, len, ForwardMode::Train);
    const float *row = logits.data() + (len - 1) * vocab;
    return std::vector<float>(row, row + vocab);
}

// ------------------------------------------------------ bit identity

TEST(ServeDecode, Fp32CacheBitIdenticalToFullSequence)
{
    // Decode rows equal the full forward's bit for bit whenever both
    // passes' GEMM shapes select the same packed-or-not path (packed
    // and unpacked GEMMs differ in low-order bits by contract). Every
    // microModel GEMM has an inner dim below 32, so prefill, full
    // forward and decode all take the unpacked kernels.
    GlobalPoolGuard pool_guard;

    ModelConfig cfg = microModel();
    ASSERT_LT(cfg.d_model, 32);
    ASSERT_LT(cfg.ffn_hidden, 32);
    LlamaModel model(cfg, 21);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(7, cfg.vocab_size, 22);
    const int64_t steps = 8;

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        runtime::setGlobalThreadCount(threads);
        std::vector<int32_t> generated;
        auto rows = decodeTrajectory(model, prompt, steps,
                                     serve::KvCacheMode::Fp32,
                                     &generated);
        std::vector<int32_t> ctx = prompt;
        for (int64_t s = 0; s < steps; ++s) {
            ctx.push_back(generated[static_cast<size_t>(s)]);
            const auto ref = fullSeqLastRow(model, ctx);
            for (int64_t v = 0; v < cfg.vocab_size; ++v)
                ASSERT_EQ(rows[static_cast<size_t>(s)]
                              [static_cast<size_t>(v)],
                          ref[static_cast<size_t>(v)])
                    << "step " << s << " vocab " << v;
        }
    }
}

TEST(ServeDecode, BitwiseDeterministicAcrossThreadCounts)
{
    GlobalPoolGuard pool_guard;
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 31);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(6, cfg.vocab_size, 32);
    const int64_t steps = 6;

    for (serve::KvCacheMode mode :
         {serve::KvCacheMode::Fp8, serve::KvCacheMode::Fp32}) {
        runtime::setGlobalThreadCount(1);
        std::vector<int32_t> gen1;
        const auto ref =
            decodeTrajectory(model, prompt, steps, mode, &gen1);
        for (int threads : {2, 8}) {
            SCOPED_TRACE(threads);
            runtime::setGlobalThreadCount(threads);
            std::vector<int32_t> gen;
            const auto got =
                decodeTrajectory(model, prompt, steps, mode, &gen);
            EXPECT_EQ(gen, gen1);
            for (size_t s = 0; s < ref.size(); ++s)
                for (size_t v = 0; v < ref[s].size(); ++v)
                    ASSERT_EQ(got[s][v], ref[s][v])
                        << "step " << s << " vocab " << v;
        }
    }
}

TEST(ServeDecode, Fp8CacheTracksFp32WithinTolerance)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 41);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(8, cfg.vocab_size, 42);
    const int64_t steps = 8;

    // Teacher-force the FP32 trajectory through the FP8 cache so the
    // two logit streams stay comparable step by step.
    std::vector<int32_t> fp32_tokens;
    const auto ref = decodeTrajectory(model, prompt, steps,
                                      serve::KvCacheMode::Fp32,
                                      &fp32_tokens);
    const auto got = decodeTrajectory(model, prompt, steps,
                                      serve::KvCacheMode::Fp8, nullptr,
                                      &fp32_tokens);

    for (size_t s = 0; s < ref.size(); ++s) {
        float max_abs = 0.0f;
        for (float r : ref[s])
            max_abs = std::max(max_abs, std::fabs(r));
        for (size_t v = 0; v < ref[s].size(); ++v)
            EXPECT_NEAR(got[s][v], ref[s][v],
                        0.08f * max_abs + 0.02f)
                << "step " << s << " vocab " << v;
    }
}

// -------------------------------------------------------- page reuse

TEST(KvCachePages, FreeListReusesPagesAcrossRequests)
{
    ModelConfig cfg = microModel();
    serve::KvCacheConfig kc =
        cacheConfigFor(cfg, serve::KvCacheMode::Fp8, /*max_seqs=*/2,
                       /*page_tokens=*/4);
    serve::KvCache cache(kc);
    const int64_t total = cache.pagesFree();
    EXPECT_EQ(cache.pagesInUse(), 0);

    std::vector<float> row(static_cast<size_t>(kc.kvDim()), 0.5f);
    int64_t first_peak = -1;
    for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE(round);
        cache.beginSequence(0);
        cache.beginSequence(1);
        for (int64_t t = 0; t < 10; ++t)
            for (int64_t layer = 0; layer < kc.n_layers; ++layer) {
                cache.append(0, layer, row.data(), row.data());
                cache.append(1, layer, row.data(), row.data());
            }
        // 10 tokens / 4-token pages = 3 pages per (seq, layer).
        EXPECT_EQ(cache.pagesInUse(), 2 * kc.n_layers * 3);
        if (first_peak < 0)
            first_peak = cache.pagesInUse();
        // Steady state: repeated identical requests reuse the same
        // pages — no growth round over round.
        EXPECT_EQ(cache.pagesInUse(), first_peak);
        cache.endSequence(0);
        cache.endSequence(1);
        EXPECT_EQ(cache.pagesInUse(), 0);
        EXPECT_EQ(cache.pagesFree(), total);
    }
}

TEST(KvCachePages, EngineReleasesAllPagesAfterDrain)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 51);

    serve::EngineConfig ec;
    ec.max_concurrency = 3;
    serve::Engine engine(model, ec);
    const int64_t total_free = engine.kvCache().pagesFree();

    serve::SyntheticStreamConfig sc;
    sc.n_requests = 8;
    sc.vocab = cfg.vocab_size;
    sc.min_prompt = 3;
    sc.max_prompt = 10;
    sc.min_new = 2;
    sc.max_new = 8;
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        auto queue = serve::RequestQueue::synthetic(sc);
        auto results = engine.run(queue);
        EXPECT_EQ(results.size(), static_cast<size_t>(sc.n_requests));
        EXPECT_EQ(engine.kvCache().pagesInUse(), 0);
        EXPECT_EQ(engine.kvCache().pagesFree(), total_free);
        EXPECT_EQ(engine.kvCache().activeSequences(), 0);
    }
}

// ------------------------------------------- batching equivalence

TEST(ServeEngine, ContinuousBatchingMatchesSequentialTokens)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(2);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 61);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::SyntheticStreamConfig sc;
    sc.n_requests = 6;
    sc.vocab = cfg.vocab_size;
    sc.min_prompt = 3;
    sc.max_prompt = 12;
    sc.min_new = 3;
    sc.max_new = 10;

    serve::EngineConfig batched;
    batched.max_concurrency = 4;
    serve::Engine engine_batched(model, batched);
    auto q1 = serve::RequestQueue::synthetic(sc);
    auto coalesced = engine_batched.run(q1);
    EXPECT_GT(engine_batched.stats().decode_steps, 0);

    serve::EngineConfig seq;
    seq.max_concurrency = 1; // one request at a time
    serve::Engine engine_seq(model, seq);
    auto q2 = serve::RequestQueue::synthetic(sc);
    auto sequential = engine_seq.run(q2);

    ASSERT_EQ(coalesced.size(), sequential.size());
    for (size_t i = 0; i < coalesced.size(); ++i) {
        EXPECT_EQ(coalesced[i].id, sequential[i].id);
        EXPECT_EQ(coalesced[i].tokens, sequential[i].tokens)
            << "request " << coalesced[i].id;
    }
}

// ------------------------------------------------- zero allocations

TEST(ServeDecode, WarmedDecodeStepPerformsZeroHeapAllocations)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1); // inline path: no pool Jobs

    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 71);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::KvCache cache(
        cacheConfigFor(cfg, serve::KvCacheMode::Fp8, /*max_seqs=*/2));
    const std::vector<int64_t> sids = {0, 1};
    cache.beginSequence(0);
    cache.beginSequence(1);
    KvCacheHandle h;
    h.cache = &cache;
    h.seq_ids = sids.data();
    h.count = 2;

    // Prefill both sequences (cache pages for the prompts allocate
    // lazily from the preallocated pool — no heap).
    const auto prompt = someTokens(5, cfg.vocab_size, 72);
    for (int64_t sid = 0; sid < 2; ++sid) {
        KvCacheHandle one;
        one.cache = &cache;
        one.seq_ids = &sids[static_cast<size_t>(sid)];
        one.count = 1;
        model.forward(prompt, 1, 5, ForwardMode::Prefill, one);
    }

    std::vector<int32_t> toks = {3, 4};
    std::vector<float> logits(
        static_cast<size_t>(2 * cfg.vocab_size));

    // Warm up arenas and the per-layer quantized-weight caches.
    for (int i = 0; i < 3; ++i)
        model.decodeStep(toks.data(), 2, h, logits.data());

    const int64_t allocs = allocDelta(
        [&] { model.decodeStep(toks.data(), 2, h, logits.data()); });
    EXPECT_EQ(allocs, 0);
}

// ----------------------------------------------------- mode guards

TEST(ServeDecode, BackwardAfterInferenceForwardDies)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 81);

    serve::KvCache cache(
        cacheConfigFor(cfg, serve::KvCacheMode::Fp32));
    const int64_t sid = 0;
    cache.beginSequence(sid);
    KvCacheHandle h;
    h.cache = &cache;
    h.seq_ids = &sid;
    h.count = 1;

    const auto prompt = someTokens(4, cfg.vocab_size, 82);
    Tensor logits = model.forward(prompt, 1, 4, ForwardMode::Prefill, h);

    // Backprop after an inference-mode forward must be a hard error
    // with a clear message (the attention state was released).
    Tensor dlogits(logits.shape());
    dlogits.zero();
    EXPECT_DEATH(model.backward(dlogits), "cannot be backpropagated");
}

} // namespace
} // namespace snip
