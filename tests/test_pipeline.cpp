/**
 * @file
 * Pipeline-parallelism model: stage splitting, stage timing, and the
 * 1F1B schedule simulation invariants.
 */
#include <gtest/gtest.h>

#include "core/snip_optimizer.h"
#include "parallel/pipeline.h"
#include "train/presets.h"

namespace snip {
namespace {

TEST(StageSplit, PaperExampleTwentyTwoOverFour)
{
    // Fig. 12: 22 blocks over 4 stages -> 6,6,6,4.
    auto s = evenStageSplit(22, 4);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0], 6);
    EXPECT_EQ(s[1], 6);
    EXPECT_EQ(s[2], 6);
    EXPECT_EQ(s[3], 4);
}

TEST(StageSplit, ExactDivision)
{
    auto s = evenStageSplit(8, 4);
    for (int v : s)
        EXPECT_EQ(v, 2);
}

TEST(StageSplit, NeverLeavesEmptyStages)
{
    for (int blocks = 4; blocks <= 30; ++blocks) {
        for (int stages = 1; stages <= 4; ++stages) {
            if (blocks < stages)
                continue;
            auto s = evenStageSplit(blocks, stages);
            int total = 0;
            for (int v : s) {
                EXPECT_GE(v, 1) << blocks << "/" << stages;
                total += v;
            }
            EXPECT_EQ(total, blocks);
        }
    }
}

TEST(StageSplit, IlpGroupsFollowTheEvenSplit)
{
    // buildIlp groups the ILP by the same split the pipeline model
    // simulates, so no stage gets an empty group.
    for (const auto &[blocks, stages] :
         {std::pair{4, 3}, {6, 4}, {8, 5}, {10, 4}, {22, 4}}) {
        ModelConfig cfg = tinyTestModel();
        cfg.n_blocks = blocks;
        LayerRegistry reg(cfg);
        FlopsModel fm(reg);
        DivergenceTable table;
        table.options = makeOptionSet(OptionSetKind::Simple);
        table.cell.assign(static_cast<size_t>(reg.numLinear()),
                          std::vector<OptionCost>(table.options.size()));
        PipelineConstraint pc;
        pc.n_stages = stages;
        const IlpProblem p = buildIlp(table, 0.5, fm, pc);
        const std::vector<int> split = evenStageSplit(blocks, stages);
        ASSERT_EQ(p.groups.size(), split.size()) << blocks << "/" << stages;
        for (size_t s = 0; s < split.size(); ++s)
            EXPECT_EQ(p.groups[s].count, split[s] * kRolesPerBlock)
                << blocks << "/" << stages << " stage " << s;
    }
}

TEST(Stages, TimesFollowPrecision)
{
    LayerRegistry reg(tinyTestModel()); // 4 blocks
    FlopsModel fm(reg);
    const size_t n = static_cast<size_t>(reg.numLinear());
    auto split = evenStageSplit(4, 2);

    auto bf16 = buildStages(
        fm, PrecisionScheme::uniform(n, Precision::BF16), split);
    auto fp4 = buildStages(
        fm, PrecisionScheme::uniform(n, Precision::FP4), split);
    ASSERT_EQ(bf16.size(), 2u);
    for (size_t s = 0; s < 2; ++s) {
        EXPECT_NEAR(bf16[s].fwd_time / fp4[s].fwd_time, 4.0, 1e-9);
        // Backward is two of the three equal GEMMs.
        EXPECT_NEAR(bf16[s].bwd_time, 2.0 * bf16[s].fwd_time, 1e-9);
        EXPECT_DOUBLE_EQ(fp4[s].fp4_fraction, 1.0);
        EXPECT_DOUBLE_EQ(bf16[s].fp4_fraction, 0.0);
    }
}

PipelineTimeline
simpleTimeline(int stages_n, int mb)
{
    std::vector<PipelineStage> stages;
    for (int s = 0; s < stages_n; ++s) {
        PipelineStage st;
        st.first_block = s;
        st.n_blocks = 1;
        st.fwd_time = 1.0;
        st.bwd_time = 2.0;
        stages.push_back(st);
    }
    return simulatePipeline(stages, mb);
}

TEST(Schedule, EventCountAndCompleteness)
{
    PipelineTimeline tl = simpleTimeline(3, 4);
    // Every (stage, mb) has exactly one fwd and one bwd event.
    EXPECT_EQ(tl.events.size(), 3u * 4u * 2u);
    std::set<std::tuple<int, int, bool>> seen;
    for (const auto &e : tl.events)
        seen.insert({e.stage, e.microbatch, e.is_forward});
    EXPECT_EQ(seen.size(), tl.events.size());
}

TEST(Schedule, DependenciesRespected)
{
    PipelineTimeline tl = simpleTimeline(4, 6);
    auto find = [&](int s, int m, bool fwd) {
        for (const auto &e : tl.events)
            if (e.stage == s && e.microbatch == m &&
                e.is_forward == fwd)
                return e;
        ADD_FAILURE() << "missing event";
        return PipelineEvent{};
    };
    for (int m = 0; m < 6; ++m) {
        for (int s = 1; s < 4; ++s) {
            // Forward s needs forward s-1 done.
            EXPECT_GE(find(s, m, true).start + 1e-12,
                      find(s - 1, m, true).end);
        }
        for (int s = 0; s < 3; ++s) {
            // Backward s needs backward s+1 done.
            EXPECT_GE(find(s, m, false).start + 1e-12,
                      find(s + 1, m, false).end);
        }
        // Backward at the last stage needs its own forward.
        EXPECT_GE(find(3, m, false).start + 1e-12,
                  find(3, m, true).end);
    }
}

TEST(Schedule, NoOverlapWithinAStage)
{
    PipelineTimeline tl = simpleTimeline(3, 5);
    for (int s = 0; s < 3; ++s) {
        std::vector<std::pair<double, double>> spans;
        for (const auto &e : tl.events)
            if (e.stage == s)
                spans.emplace_back(e.start, e.end);
        std::sort(spans.begin(), spans.end());
        for (size_t i = 1; i < spans.size(); ++i)
            EXPECT_GE(spans[i].first + 1e-12, spans[i - 1].second);
    }
}

TEST(Schedule, MakespanMatchesAnalyticGpipeBound)
{
    // Uniform stages, fwd=1, bwd=2: 1F1B makespan =
    // (S-1)*(f+b) + M*(f+b) = (S-1+M)*3 for this schedule family.
    const int S = 4, M = 8;
    PipelineTimeline tl = simpleTimeline(S, M);
    EXPECT_NEAR(tl.makespan, (S - 1 + M) * 3.0, 1e-9);
}

TEST(Schedule, MoreMicrobatchesShrinkBubbleFraction)
{
    double prev = 1.0;
    for (int mb : {2, 4, 8, 16}) {
        PipelineTimeline tl = simpleTimeline(4, mb);
        EXPECT_LT(tl.bubble_fraction, prev);
        prev = tl.bubble_fraction;
    }
    // Asymptotically the 1F1B bubble is (S-1)/(S-1+M).
    PipelineTimeline big = simpleTimeline(4, 64);
    EXPECT_NEAR(big.bubble_fraction, 3.0 / 67.0, 0.01);
}

TEST(Schedule, UnbalancedStagesBottleneckMakespan)
{
    std::vector<PipelineStage> stages(2);
    stages[0] = {0, 1, 1.0, 2.0, 0.0};
    stages[1] = {1, 1, 3.0, 6.0, 0.0}; // slow stage
    PipelineTimeline slow = simulatePipeline(stages, 8);
    stages[1].fwd_time = 1.0;
    stages[1].bwd_time = 2.0;
    PipelineTimeline fast = simulatePipeline(stages, 8);
    EXPECT_GT(slow.makespan, 2.5 * fast.makespan);
}

TEST(Schedule, RenderMentionsEveryStage)
{
    PipelineTimeline tl = simpleTimeline(3, 2);
    std::string r = tl.render(40);
    EXPECT_NE(r.find("stage0"), std::string::npos);
    EXPECT_NE(r.find("stage2"), std::string::npos);
}

} // namespace
} // namespace snip
