/**
 * @file
 * Attention and whole-model tests: causality, GQA shapes, end-to-end
 * gradient checks through the full LlamaModel, scheme application, the
 * noise-injection hooks SNIP's probes rely on, and the batched
 * attention core against its per-head reference schedule.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/model.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "train/presets.h"

namespace snip {
namespace {

ModelConfig
microModel()
{
    ModelConfig m = tinyTestModel();
    m.n_blocks = 2;
    m.d_model = 8;
    m.ffn_hidden = 12;
    m.vocab_size = 16;
    m.n_heads = 2;
    m.n_kv_heads = 2;
    m.max_seq = 8;
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

TEST(Model, LogitsShape)
{
    LlamaModel model(microModel(), 1);
    auto tokens = someTokens(2 * 6, 16, 1);
    Tensor logits = model.forward(tokens, 2, 6, ForwardMode::Train);
    EXPECT_EQ(logits.size(0), 12);
    EXPECT_EQ(logits.size(1), 16);
    EXPECT_FALSE(hasNonFinite(logits));
}

TEST(Model, CausalityFutureTokensDoNotAffectPast)
{
    LlamaModel model(microModel(), 2);
    auto tokens = someTokens(8, 16, 3);
    Tensor l1 = model.forward(tokens, 1, 8, ForwardMode::Train);
    auto tokens2 = tokens;
    tokens2[7] = (tokens2[7] + 5) % 16; // change the LAST token
    Tensor l2 = model.forward(tokens2, 1, 8, ForwardMode::Train);
    // Rows 0..6 must be identical; row 7 must differ.
    for (int64_t r = 0; r < 7; ++r)
        for (int64_t v = 0; v < 16; ++v)
            EXPECT_EQ(l1.at(r, v), l2.at(r, v)) << "row " << r;
    double diff_last = 0;
    for (int64_t v = 0; v < 16; ++v)
        diff_last += std::fabs(l1.at(7, v) - l2.at(7, v));
    EXPECT_GT(diff_last, 1e-6);
}

TEST(Model, BatchRowsAreIndependent)
{
    LlamaModel model(microModel(), 4);
    auto a = someTokens(6, 16, 5);
    auto b = someTokens(6, 16, 6);
    std::vector<int32_t> both = a;
    both.insert(both.end(), b.begin(), b.end());
    Tensor l_both = model.forward(both, 2, 6, ForwardMode::Train);
    Tensor l_a = model.forward(a, 1, 6, ForwardMode::Train);
    for (int64_t r = 0; r < 6; ++r)
        for (int64_t v = 0; v < 16; ++v)
            EXPECT_NEAR(l_both.at(r, v), l_a.at(r, v), 1e-4);
}

TEST(Model, EndToEndGradientCheck)
{
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 7);
    auto tokens = someTokens(8, 16, 8);
    auto targets = someTokens(8, 16, 9);

    model.zeroGrad();
    LossResult res = model.forwardLoss(tokens, targets, 1, 8);
    model.backward(res.dlogits);

    auto loss_fn = [&] {
        return model.forwardLoss(tokens, targets, 1, 8).loss;
    };

    Rng pick(10);
    for (auto &p : model.params()) {
        SCOPED_TRACE(p.name);
        for (int s = 0; s < 3; ++s) {
            int64_t i = static_cast<int64_t>(pick.nextBelow(
                static_cast<uint64_t>(p.value->numel())));
            const float orig = p.value->at(i);
            const float h = 2e-3f * (std::fabs(orig) + 1.0f);
            p.value->at(i) = orig + h;
            double up = loss_fn();
            p.value->at(i) = orig - h;
            double down = loss_fn();
            p.value->at(i) = orig;
            const double num = (up - down) / (2.0 * h);
            const double ana = p.grad->at(i);
            EXPECT_NEAR(num, ana,
                        3e-2 * (std::fabs(num) + std::fabs(ana)) + 1e-3)
                << p.name << "[" << i << "]";
        }
    }
}

TEST(Model, GqaGradientCheck)
{
    ModelConfig cfg = microModel();
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2; // grouped-query attention
    LlamaModel model(cfg, 11);
    auto tokens = someTokens(8, 16, 12);
    auto targets = someTokens(8, 16, 13);

    model.zeroGrad();
    LossResult res = model.forwardLoss(tokens, targets, 1, 8);
    model.backward(res.dlogits);

    auto loss_fn = [&] {
        return model.forwardLoss(tokens, targets, 1, 8).loss;
    };
    // Check K and V weights specifically (the GQA-affected path).
    Rng pick(14);
    for (int idx : {1, 2}) { // K, V of block 0
        Linear &lin = model.linear(idx);
        for (int s = 0; s < 4; ++s) {
            int64_t i = static_cast<int64_t>(pick.nextBelow(
                static_cast<uint64_t>(lin.weight().numel())));
            const float orig = lin.weight().at(i);
            const float h = 2e-3f;
            lin.weight().at(i) = orig + h;
            double up = loss_fn();
            lin.weight().at(i) = orig - h;
            double down = loss_fn();
            lin.weight().at(i) = orig;
            const double num = (up - down) / (2.0 * h);
            const double ana = lin.grad().at(i);
            EXPECT_NEAR(num, ana,
                        3e-2 * (std::fabs(num) + std::fabs(ana)) + 1e-3);
        }
    }
}

TEST(Model, SchemeAppliesToEveryLinear)
{
    LlamaModel model(microModel(), 15);
    const size_t n = static_cast<size_t>(model.registry().numLinear());
    PrecisionScheme scheme = PrecisionScheme::uniform(n, Precision::FP8);
    scheme.layers[3] = LayerScheme::uniform(Precision::FP4);
    model.setScheme(scheme);
    EXPECT_TRUE(model.currentScheme() == scheme);
    EXPECT_EQ(model.linear(3).scheme().of(GemmKind::Fwd),
              Precision::FP4);
    EXPECT_EQ(model.linear(0).scheme().of(GemmKind::Fwd),
              Precision::FP8);
}

TEST(Model, QuantizedSchemeChangesLossDeterministically)
{
    LlamaModel model(microModel(), 16);
    auto tokens = someTokens(8, 16, 17);
    auto targets = someTokens(8, 16, 18);
    const size_t n = static_cast<size_t>(model.registry().numLinear());

    double bf16 = model.forwardLoss(tokens, targets, 1, 8).loss;
    model.setScheme(PrecisionScheme::uniform(n, Precision::FP4));
    double fp4_a = model.forwardLoss(tokens, targets, 1, 8).loss;
    EXPECT_NE(bf16, fp4_a);
    // FP4 forward uses nearest rounding for X/W: deterministic.
    double fp4_b = model.forwardLoss(tokens, targets, 1, 8).loss;
    EXPECT_EQ(fp4_a, fp4_b);
}

TEST(Model, ForwardNoiseInjectionPerturbsLoss)
{
    LlamaModel model(microModel(), 19);
    auto tokens = someTokens(8, 16, 20);
    auto targets = someTokens(8, 16, 21);
    double base = model.forwardLoss(tokens, targets, 1, 8).loss;
    double hidden_norm = model.lastHiddenNorm();
    EXPECT_GT(hidden_norm, 0.0);

    model.setForwardNoise(1e-2 * hidden_norm);
    double noisy = model.forwardLoss(tokens, targets, 1, 8).loss;
    EXPECT_NE(base, noisy);
    EXPECT_NEAR(model.lastNoiseNorm(), 1e-2 * hidden_norm,
                0.5e-2 * hidden_norm);
    model.setForwardNoise(0.0);
    EXPECT_EQ(model.forwardLoss(tokens, targets, 1, 8).loss, base);
}

TEST(Model, BackwardNoiseChangesGradientsNotLoss)
{
    LlamaModel model(microModel(), 22);
    auto tokens = someTokens(8, 16, 23);
    auto targets = someTokens(8, 16, 24);

    model.zeroGrad();
    LossResult base = model.forwardLoss(tokens, targets, 1, 8);
    model.backward(base.dlogits);
    Tensor g0 = model.linear(0).grad();

    model.setBackwardNoise(1e-2);
    model.zeroGrad();
    LossResult noisy = model.forwardLoss(tokens, targets, 1, 8);
    model.backward(noisy.dlogits);
    model.setBackwardNoise(0.0);

    EXPECT_EQ(base.loss, noisy.loss); // forward untouched
    EXPECT_GT(diffNorm(g0, model.linear(0).grad()), 0.0);
}

TEST(Model, ParameterCountMatchesConfigFormula)
{
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 25);
    int64_t total = 0;
    for (auto &p : model.params())
        total += p.value->numel();
    EXPECT_EQ(total, cfg.parameterCount());
}

// ------------------------------------------------ reference schedule
//
// The per-(b,h) loop the batched attention core replaced, kept here as
// its reference: per-head gathers, per-head GEMMs, the shared fused
// softmax kernels. Every GEMM runs one driver, so the core must match
// it bit for bit.

/** Copy the [seq, width] slice of head h of batch row b out. */
void
gatherHead(const float *src, float *dst, int64_t b, int64_t h, int64_t seq,
           int64_t n_heads, int64_t width)
{
    const int64_t cols = n_heads * width;
    for (int64_t s = 0; s < seq; ++s)
        for (int64_t c = 0; c < width; ++c)
            dst[s * width + c] = src[(b * seq + s) * cols + h * width + c];
}

/** Write (or with @p add, accumulate) a [seq, width] buffer into the
 *  slice of head h of batch row b. */
void
scatterHead(float *dst, const float *src, int64_t b, int64_t h,
            int64_t seq, int64_t n_heads, int64_t width, bool add)
{
    const int64_t cols = n_heads * width;
    for (int64_t s = 0; s < seq; ++s) {
        for (int64_t c = 0; c < width; ++c) {
            float &out = dst[(b * seq + s) * cols + h * width + c];
            out = add ? out + src[s * width + c] : src[s * width + c];
        }
    }
}

void
forwardReference(const AttnShape &s, const float *q, const float *k,
                 const float *v, float *probs, float *ctx)
{
    const int64_t seq = s.seq, hd = s.head_dim;
    const int64_t group = s.n_heads / s.n_kv_heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const simd::KernelTable &kt = simd::activeKernels();
    std::vector<float> qb(seq * hd), kb(seq * hd), vb(seq * hd),
        cb(seq * hd);
    for (int64_t b = 0; b < s.batch; ++b) {
        for (int64_t h = 0; h < s.n_heads; ++h) {
            gatherHead(q, qb.data(), b, h, seq, s.n_heads, hd);
            gatherHead(k, kb.data(), b, h / group, seq, s.n_kv_heads, hd);
            gatherHead(v, vb.data(), b, h / group, seq, s.n_kv_heads, hd);
            float *prob = probs + (b * s.n_heads + h) * seq * seq;
            gemmNT(qb.data(), kb.data(), prob, seq, seq, hd);
            kt.attnSoftmaxFwd(prob, seq, scale);
            gemmNN(prob, vb.data(), cb.data(), seq, hd, seq);
            scatterHead(ctx, cb.data(), b, h, seq, s.n_heads, hd,
                        /*add=*/false);
        }
    }
}

void
backwardReference(const AttnShape &s, const float *q, const float *k,
                  const float *v, const float *probs, const float *dctx,
                  float *dq, float *dk, float *dv)
{
    const int64_t seq = s.seq, hd = s.head_dim;
    const int64_t group = s.n_heads / s.n_kv_heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const simd::KernelTable &kt = simd::activeKernels();
    std::vector<float> qb(seq * hd), kb(seq * hd), vb(seq * hd),
        dcb(seq * hd), dqb(seq * hd), dkb(seq * hd), dvb(seq * hd),
        dp(seq * seq), ds(seq * seq);
    for (int64_t b = 0; b < s.batch; ++b) {
        for (int64_t h = 0; h < s.n_heads; ++h) {
            const int64_t kvh = h / group;
            gatherHead(q, qb.data(), b, h, seq, s.n_heads, hd);
            gatherHead(k, kb.data(), b, kvh, seq, s.n_kv_heads, hd);
            gatherHead(v, vb.data(), b, kvh, seq, s.n_kv_heads, hd);
            gatherHead(dctx, dcb.data(), b, h, seq, s.n_heads, hd);
            const float *prob = probs + (b * s.n_heads + h) * seq * seq;
            // dV = P^T dCtx ; dP = dCtx V^T.
            gemmTN(prob, dcb.data(), dvb.data(), seq, hd, seq);
            gemmNT(dcb.data(), vb.data(), dp.data(), seq, seq, hd);
            kt.attnSoftmaxBwd(prob, dp.data(), ds.data(), seq, scale);
            // dQ = dS K ; dK = dS^T Q.
            gemmNN(ds.data(), kb.data(), dqb.data(), seq, hd, seq);
            gemmTN(ds.data(), qb.data(), dkb.data(), seq, hd, seq);
            scatterHead(dq, dqb.data(), b, h, seq, s.n_heads, hd, true);
            scatterHead(dk, dkb.data(), b, kvh, seq, s.n_kv_heads, hd,
                        true);
            scatterHead(dv, dvb.data(), b, kvh, seq, s.n_kv_heads, hd,
                        true);
        }
    }
}

TEST(AttentionCore, BitIdenticalToPerHeadReference)
{
    // GQA shapes (shared K/V groups, per-kv-head dK/dV reduction): a
    // small batch with ragged strips and a training-sized one.
    GlobalPoolGuard pool_guard;
    for (const AttnShape s : {AttnShape{2, 8, 4, 2, 4},
                              AttnShape{2, 32, 8, 2, 16}}) {
        const int64_t count = s.batch * s.n_heads;
        SCOPED_TRACE(s.seq);

        const int64_t rows = s.batch * s.seq;
        Rng rng(51);
        const Tensor q = Tensor::randn({rows, s.n_heads * s.head_dim}, rng);
        const Tensor k =
            Tensor::randn({rows, s.n_kv_heads * s.head_dim}, rng);
        const Tensor v =
            Tensor::randn({rows, s.n_kv_heads * s.head_dim}, rng);
        const Tensor dctx =
            Tensor::randn({rows, s.n_heads * s.head_dim}, rng);

        runtime::setGlobalThreadCount(1);
        Tensor ref_probs(count * s.seq, s.seq), ref_ctx(q.size(0), q.size(1));
        forwardReference(s, q.data(), k.data(), v.data(),
                         ref_probs.data(), ref_ctx.data());
        Tensor ref_dq(q.size(0), q.size(1)), ref_dk(k.size(0), k.size(1)),
            ref_dv(v.size(0), v.size(1));
        backwardReference(s, q.data(), k.data(), v.data(),
                          ref_probs.data(), dctx.data(), ref_dq.data(),
                          ref_dk.data(), ref_dv.data());

        for (int threads : {1, 2, 8}) {
            SCOPED_TRACE(threads);
            runtime::setGlobalThreadCount(threads);
            Tensor probs(count * s.seq, s.seq), ctx(q.size(0), q.size(1));
            attentionForwardCore(s, q.data(), k.data(), v.data(),
                                 probs.data(), ctx.data());
            EXPECT_TRUE(probs == ref_probs);
            EXPECT_TRUE(ctx == ref_ctx);
            Tensor dq(q.size(0), q.size(1)), dk(k.size(0), k.size(1)),
                dv(v.size(0), v.size(1));
            attentionBackwardCore(s, q.data(), k.data(), v.data(),
                                  probs.data(), dctx.data(), dq.data(),
                                  dk.data(), dv.data());
            EXPECT_TRUE(dq == ref_dq);
            EXPECT_TRUE(dk == ref_dk);
            EXPECT_TRUE(dv == ref_dv);
        }
    }
}

TEST(Attention, ModelDeterministicAcrossThreads)
{
    // Loss, a GQA-affected gradient and logits: the thread count must
    // never change numerics.
    GlobalPoolGuard pool_guard;
    ModelConfig cfg = microModel();
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2;
    cfg.d_model = 16;
    auto tokens = someTokens(2 * 8, 16, 41);
    auto targets = someTokens(2 * 8, 16, 42);

    auto run = [&](LossResult *res, Tensor *grad) {
        LlamaModel m(cfg, 43);
        m.zeroGrad();
        *res = m.forwardLoss(tokens, targets, 2, 8);
        m.backward(res->dlogits);
        *grad = m.linear(1).grad(); // K, GQA
        return m.forward(tokens, 2, 8, ForwardMode::Train);
    };
    runtime::setGlobalThreadCount(1);
    LossResult ref;
    Tensor ref_grad;
    const Tensor ref_logits = run(&ref, &ref_grad);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(threads);
        runtime::setGlobalThreadCount(threads);
        LossResult res;
        Tensor grad;
        EXPECT_TRUE(run(&res, &grad) == ref_logits);
        EXPECT_EQ(res.loss, ref.loss);
        EXPECT_TRUE(grad == ref_grad);
    }
}

TEST(Attention, SavedStateReleasedAfterBackward)
{
    ModelConfig cfg = microModel();
    Rng rng(28);
    Rope rope(cfg.max_seq, cfg.headDim(), cfg.rope_theta);
    Attention attn(cfg, 0, rng, nullptr, &rope);
    Tensor x = Tensor::randn({8, cfg.d_model}, rng);

    EXPECT_EQ(attn.savedStateBytes(), 0);
    Tensor y1 = attn.forward(x, 1, 8, ForwardMode::Train);
    EXPECT_GT(attn.savedStateBytes(), 0);
    Tensor dy = Tensor::randn({8, cfg.d_model}, rng);
    attn.backward(dy);
    // backward() released q/k/v, probabilities and context.
    EXPECT_EQ(attn.savedStateBytes(), 0);

    // Forward-after-backward starts a fresh episode with identical
    // results, and a second backward works against the new state.
    Tensor y2 = attn.forward(x, 1, 8, ForwardMode::Train);
    EXPECT_TRUE(y1 == y2);
    EXPECT_GT(attn.savedStateBytes(), 0);
    attn.backward(dy);
    EXPECT_EQ(attn.savedStateBytes(), 0);
}

TEST(AttentionDeath, GqaShapeValidation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ModelConfig cfg = microModel();
    Rng rng(29);
    Rope rope(cfg.max_seq, 4);

    // n_heads not a multiple of n_kv_heads: the truncating group
    // mapping would scatter query heads onto the wrong kv head.
    ModelConfig bad_kv = cfg;
    bad_kv.n_heads = 4;
    bad_kv.n_kv_heads = 3;
    bad_kv.d_model = 16;
    EXPECT_DEATH(Attention(bad_kv, 0, rng, nullptr, &rope),
                 "not divisible by n_kv_heads");

    // d_model not a multiple of n_heads: headDim() truncates.
    ModelConfig bad_dm = cfg;
    bad_dm.d_model = 10;
    bad_dm.n_heads = 4;
    bad_dm.n_kv_heads = 4;
    EXPECT_DEATH(Attention(bad_dm, 0, rng, nullptr, &rope),
                 "not divisible by n_heads");

    // Zero head counts die in validate() before any division.
    ModelConfig zero_heads = cfg;
    zero_heads.n_heads = 0;
    zero_heads.n_kv_heads = 0;
    EXPECT_EXIT(zero_heads.validate(),
                ::testing::ExitedWithCode(1), "must be positive");
    EXPECT_DEATH(Attention(zero_heads, 0, rng, nullptr, &rope),
                 "positive head counts");
}

TEST(Rope, HoistedFrequencyTableMatchesPerEntryConstruction)
{
    // The constructor hoists the per-pair pow() out of the position
    // loop; the table must stay bit-identical to the original
    // per-(pos, pair) construction. Compare through apply() on a
    // basis-like input so every cos/sin entry is exercised.
    const int64_t max_seq = 24, hd = 8;
    const double theta = 10000.0;
    Rope rope(max_seq, hd, theta);

    const int64_t pairs = hd / 2;
    Rng rng(30);
    Tensor x = Tensor::randn({max_seq, hd}, rng);
    Tensor rotated = x;
    rope.apply(rotated, 1, max_seq, 1);

    for (int64_t pos = 0; pos < max_seq; ++pos) {
        for (int64_t p = 0; p < pairs; ++p) {
            // The pre-hoist construction, verbatim.
            const double freq = std::pow(
                theta,
                -2.0 * static_cast<double>(p) / static_cast<double>(hd));
            const double angle = static_cast<double>(pos) * freq;
            const float c = static_cast<float>(std::cos(angle));
            const float s = static_cast<float>(std::sin(angle));
            const float a = x.at(pos, p);
            const float b = x.at(pos, p + pairs);
            EXPECT_EQ(rotated.at(pos, p), a * c - b * s)
                << "pos=" << pos << " p=" << p;
            EXPECT_EQ(rotated.at(pos, p + pairs), a * s + b * c)
                << "pos=" << pos << " p=" << p;
        }
    }
}

TEST(Registry, IndexingAndNames)
{
    LayerRegistry reg(tinyTestModel());
    EXPECT_EQ(reg.numLinear(), 4 * kRolesPerBlock);
    EXPECT_EQ(reg.index(1, LayerRole::Down), 13);
    EXPECT_EQ(reg.blockOf(13), 1);
    EXPECT_EQ(reg.roleOf(13), LayerRole::Down);
    EXPECT_EQ(reg.layerName(13), "blk01.Down");
    // Shapes: Down is [d_model, ffn_hidden].
    EXPECT_EQ(reg.outFeatures(13), tinyTestModel().d_model);
    EXPECT_EQ(reg.inFeatures(13), tinyTestModel().ffn_hidden);
    // FLOPs: 3 GEMMs x 2 x out x in.
    EXPECT_DOUBLE_EQ(reg.flopsPerToken(13),
                     6.0 * tinyTestModel().d_model *
                         tinyTestModel().ffn_hidden);
}

TEST(Registry, LinearAccessorMatchesRegistryShapes)
{
    LlamaModel model(microModel(), 26);
    const LayerRegistry &reg = model.registry();
    for (int i = 0; i < reg.numLinear(); ++i) {
        EXPECT_EQ(model.linear(i).outFeatures(), reg.outFeatures(i))
            << reg.layerName(i);
        EXPECT_EQ(model.linear(i).inFeatures(), reg.inFeatures(i));
    }
}

} // namespace
} // namespace snip
