/**
 * @file
 * Golden numerics: CRC32 digests of short training and serving runs,
 * compared against the checked-in table in golden_digests.h.
 *
 * Each digest is checked at 1, 2 and 8 pool threads with telemetry
 * and tracing off, and once more at 2 threads with both on (in
 * memory), on the scalar backend and, when the CPU supports it, the
 * AVX2 backend. Neither a thread count nor the instruments change
 * numerics, so every run must reproduce the one table entry of its
 * backend. On a mismatch the test prints the table line the current
 * code produces: re-pinning the numerics is a deliberate, visible
 * edit of golden_digests.h.
 *
 * Workloads:
 *  - train_tiny: tiny_test, adaptive SNIP at a 75% FP4 FLOP target
 *    with async scheme updates and stochastic-rounded FP4 gradients
 *    (the default gradient rounding).
 *  - train_wide: the same run on a wider tiny_test whose GEMMs span
 *    several M-blocks and B strips.
 *  - fig8_short: the paper's fig8 setup, shortened. tinyllama_sim
 *    (22 blocks) trains 10 BF16 warm-up steps, then 20 adaptive-SNIP
 *    steps at a 75% FP4 FLOP target with async scheme updates every
 *    10 steps (snapshots at 10 and 20, adopted 8 steps later) and
 *    stochastic-rounded FP4 gradients; the loss digest covers the 20
 *    SNIP steps. Built in memory, no checkpoint file.
 *  - quickstart: examples/quickstart.cpp's run. tiny_test trains 20
 *    BF16 steps, then 60 steps under an inline controller at a 50% FP4
 *    target that updates at the start and every 50 steps (2 updates);
 *    the loss digest covers those 60 steps. The only digest of the
 *    inline controller path.
 *  - serve_fp8kv / serve_fp32kv: with an FP8 / FP32 KV cache, the
 *    greedy token stream of a short continuous-batching run, and the
 *    logits of a batch-2 prefill + decode through the model API.
 *  - quant_regions: FakeQuantizer outputs on a ragged 130x200 tensor
 *    under every scaling granularity, nearest and stochastic, in FP4
 *    and FP8. Stochastic rounding seeds one stream per region from the
 *    region index, so this pins the canonical region order that no
 *    training digest reaches outside the tile/block role policies.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/controller.h"
#include "quant/quantizer.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/request_queue.h"
#include "simd/dispatch.h"
#include "tensor/gemm.h"
#include "testing_util.h"
#include "train/presets.h"
#include "util/crc32.h"

#include "golden_digests.h"

namespace snip {
namespace {

/** Restores the SNIP_SIMD-selected backend when a test ends. */
struct BackendGuard
{
    BackendGuard() = default;
    BackendGuard(const BackendGuard &) = delete;
    BackendGuard &operator=(const BackendGuard &) = delete;
    ~BackendGuard() { simd::reinitFromEnv(); }
};

/** The checked-in digest of (@p name, @p backend), or null. */
const GoldenDigest *
findGolden(const std::string &name, const std::string &backend)
{
    for (const GoldenDigest &g : kGoldenDigests)
        if (name == g.name && backend == g.backend)
            return &g;
    return nullptr;
}

/** The golden_digests.h line that pins @p crc. */
std::string
tableLine(const std::string &name, const std::string &backend,
          uint32_t crc)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "    {\"%s\", \"%s\", 0x%08xu},",
                  name.c_str(), backend.c_str(), crc);
    return buf;
}

/** Named digests of one run. */
using Digests = std::vector<std::pair<std::string, uint32_t>>;

/**
 * Run @p workload at 1/2/8 threads, and at 2 threads with telemetry
 * and tracing on, under every available backend and compare each of
 * its digests with the table.
 */
template <typename Workload>
void
checkGolden(Workload workload)
{
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    InstrumentGuard instrument_guard;
    struct Run
    {
        int threads;
        bool instruments;
    };
    for (const char *backend : {"scalar", "avx2"}) {
        if (!simd::setBackendByName(backend)) {
            ASSERT_STRNE(backend, "scalar");
            std::printf("[golden] %s backend unavailable; skipped\n",
                        backend);
            continue;
        }
        for (const Run run : {Run{1, false}, Run{2, false}, Run{8, false},
                              Run{2, true}}) {
            SCOPED_TRACE(std::string(backend) + " @ " +
                         std::to_string(run.threads) + " threads" +
                         (run.instruments ? ", telemetry + trace on"
                                          : ""));
            runtime::setGlobalThreadCount(run.threads);
            setInstruments(run.instruments);
            for (const auto &[name, crc] : workload()) {
                const GoldenDigest *g = findGolden(name, backend);
                const std::string line = tableLine(name, backend, crc);
                if (g == nullptr)
                    ADD_FAILURE() << "no golden digest; the current "
                                     "code produces:\n"
                                  << line;
                else if (g->crc != crc)
                    ADD_FAILURE() << "digest moved from "
                                  << tableLine(name, backend, g->crc)
                                  << "\nthe current code produces:\n"
                                  << line;
            }
        }
    }
}

// ----------------------------------------------------------- training

constexpr int64_t kTrainSteps = 14;

/** Loss-bit and final-parameter digests of one training run. */
Digests
runDigests(const std::string &prefix, const std::vector<double> &losses,
           Trainer &trainer)
{
    uint32_t params = 0;
    for (const ParamRef &p : trainer.model().params())
        params = crc32(p.value->data(),
                       sizeof(float) *
                           static_cast<size_t>(p.value->numel()),
                       params);
    return {{prefix + ".loss",
             crc32(losses.data(), sizeof(double) * losses.size())},
            {prefix + ".params", params}};
}

Digests
trainDigests(const std::string &prefix, const ModelConfig &model)
{
    Trainer trainer(trainerPreset(model));
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.75;
    cc.update_interval = 6; // snapshots at 0, 6, 12
    cc.async = true;
    cc.apply_delay = 2; // adopted at 2 and 8
    SnipController controller(cc);
    const std::vector<double> losses =
        trainer.train(kTrainSteps, &controller);
    EXPECT_EQ(controller.totals().updates, 2);

    return runDigests(prefix, losses, trainer);
}

/** tiny_test widened until its GEMMs span several M-blocks and B
 *  strips. */
ModelConfig
wideModel()
{
    ModelConfig m = tinyTestModel();
    m.n_blocks = 2;
    m.d_model = 64;
    m.n_heads = 4;
    m.n_kv_heads = 4;
    m.ffn_hidden = 128;
    return m;
}

TEST(Golden, TrainTinyAdaptiveFp4)
{
    checkGolden([] { return trainDigests("train_tiny", tinyTestModel()); });
}

TEST(Golden, TrainWideAdaptiveFp4)
{
    checkGolden([] { return trainDigests("train_wide", wideModel()); });
}

Digests
fig8ShortDigests()
{
    Trainer trainer(trainerPreset(tinyllamaSim()));
    trainer.train(10);
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.75;
    cc.update_interval = 10;
    cc.async = true; // default apply_delay: adopted at 18 and 28
    SnipController controller(cc);
    const std::vector<double> losses = trainer.train(20, &controller);
    EXPECT_EQ(controller.totals().updates, 2);
    return runDigests("fig8_short", losses, trainer);
}

TEST(Golden, Fig8ShortAdaptiveFp4)
{
    checkGolden(fig8ShortDigests);
}

Digests
quickstartDigests()
{
    Trainer trainer(trainerPreset(tinyTestModel()));
    trainer.train(20);
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.5;
    cc.update_interval = 50; // inline updates at steps 20 and 50
    SnipController controller(cc);
    const std::vector<double> losses = trainer.train(60, &controller);
    EXPECT_EQ(controller.totals().updates, 2);
    return runDigests("quickstart", losses, trainer);
}

TEST(Golden, QuickstartInlineSnip)
{
    checkGolden(quickstartDigests);
}

// ------------------------------------------------------- quantization

Digests
quantRegionDigests()
{
    // Rows of different magnitude (distinct per-region scales) and one
    // all-zero row (the unit-scale case).
    Rng rng(130200);
    Tensor x = Tensor::randn({130, 200}, rng);
    for (int64_t r = 0; r < 130; ++r)
        for (int64_t c = 0; c < 200; ++c)
            x.at(r, c) *= r == 5 ? 0.0f : 1.0f + (r % 7);
    uint32_t crc = 0;
    for (const FloatFormat &fmt : {fp4E2m1(), fp8E4m3()})
        for (const Granularity g :
             {Granularity::Tensorwise, Granularity::Rowwise,
              Granularity::Columnwise, Granularity::Blockwise,
              Granularity::Tilewise})
            for (const int block : {128, 48})
                for (const Rounding rounding :
                     {Rounding::Nearest, Rounding::Stochastic}) {
                    FakeQuantizer q(0x5EEDull);
                    const Tensor y =
                        q.quantize(x, {fmt, {g, block}, rounding});
                    crc = crc32(y.data(),
                                sizeof(float) *
                                    static_cast<size_t>(y.numel()),
                                crc);
                }
    return {{"quant_regions", crc}};
}

TEST(Golden, QuantRegionsEveryGranularity)
{
    checkGolden(quantRegionDigests);
}

// ------------------------------------------------------------ serving

/** Greedy pick over one logits row. */
int32_t
argmax(const float *row, int64_t vocab)
{
    int32_t best = 0;
    for (int64_t v = 1; v < vocab; ++v)
        if (row[v] > row[best])
            best = static_cast<int32_t>(v);
    return best;
}

/**
 * CRC of every logits row of a batch-2 greedy decode: each sequence
 * is prefilled, then both decode together. Pins the decode numerics
 * bit for bit, where a token stream only pins their argmax.
 */
uint32_t
decodeLogitsCrc(LlamaModel &model, serve::KvCacheMode mode)
{
    const ModelConfig &cfg = model.config();
    const int64_t vocab = cfg.vocab_size;
    constexpr int64_t kPrompt = 9, kSteps = 12, kPage = 4;
    serve::KvCacheConfig kc;
    kc.n_layers = cfg.n_blocks;
    kc.n_kv_heads = cfg.n_kv_heads;
    kc.head_dim = cfg.headDim();
    kc.page_tokens = kPage;
    kc.max_seqs = 2;
    kc.max_seq_tokens = cfg.max_seq;
    kc.max_pages = 2 * cfg.n_blocks * (cfg.max_seq + kPage - 1) / kPage;
    kc.mode = mode;
    serve::KvCache cache(kc);

    const int64_t sids[2] = {0, 1};
    int32_t toks[2];
    uint32_t crc = 0;
    for (int64_t i = 0; i < 2; ++i) {
        std::vector<int32_t> prompt;
        for (int64_t t = 0; t < kPrompt; ++t)
            prompt.push_back(
                static_cast<int32_t>((7 * t + 13 * i + 3) % vocab));
        cache.beginSequence(sids[i]);
        KvCacheHandle one;
        one.cache = &cache;
        one.seq_ids = &sids[i];
        one.count = 1;
        Tensor logits =
            model.forward(prompt, 1, kPrompt, ForwardMode::Prefill, one);
        crc = crc32(logits.data(),
                    sizeof(float) * static_cast<size_t>(logits.numel()),
                    crc);
        toks[i] = argmax(logits.data() + (kPrompt - 1) * vocab, vocab);
    }
    KvCacheHandle both;
    both.cache = &cache;
    both.seq_ids = sids;
    both.count = 2;
    std::vector<float> logits(static_cast<size_t>(2 * vocab));
    for (int64_t s = 0; s < kSteps; ++s) {
        model.decodeStep(toks, 2, both, logits.data());
        crc = crc32(logits.data(), sizeof(float) * logits.size(), crc);
        for (int64_t i = 0; i < 2; ++i)
            toks[i] = argmax(logits.data() + i * vocab, vocab);
    }
    return crc;
}

Digests
serveDigests(const std::string &name, serve::KvCacheMode mode)
{
    ModelConfig cfg = tinyTestModel();
    cfg.max_seq = 64;
    LlamaModel model(cfg, 2024);
    model.setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(model.registry().numLinear()),
        Precision::FP8));
    const uint32_t logits = decodeLogitsCrc(model, mode);

    serve::EngineConfig ec;
    ec.max_concurrency = 4;
    ec.kv_mode = mode;
    serve::Engine engine(model, ec);

    serve::SyntheticStreamConfig sc;
    sc.n_requests = 12;
    sc.seed = 0x60D5EEDull;
    sc.vocab = cfg.vocab_size;
    auto queue = serve::RequestQueue::synthetic(sc);
    const std::vector<serve::RequestResult> results = engine.run(queue);
    EXPECT_EQ(results.size(), 12u);

    uint32_t crc = 0;
    for (const serve::RequestResult &r : results) {
        EXPECT_EQ(r.status, serve::RequestStatus::Ok) << r.id;
        const int64_t head[3] = {r.id, static_cast<int64_t>(r.status),
                                 static_cast<int64_t>(r.tokens.size())};
        crc = crc32(head, sizeof(head), crc);
        crc = crc32(r.tokens.data(), sizeof(int32_t) * r.tokens.size(),
                    crc);
    }
    return {{name + ".tokens", crc}, {name + ".logits", logits}};
}

TEST(Golden, ServeFp8KvTokensAndLogits)
{
    checkGolden(
        [] { return serveDigests("serve_fp8kv", serve::KvCacheMode::Fp8); });
}

TEST(Golden, ServeFp32KvTokensAndLogits)
{
    checkGolden([] {
        return serveDigests("serve_fp32kv", serve::KvCacheMode::Fp32);
    });
}

} // namespace
} // namespace snip
