// Span nesting, budget arithmetic and sample statistics of the
// benchmark's outside-in tracer (budget.h).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "budget.h"

namespace perfbench {
namespace {

/** A span with explicit times (ns) under @p parent on the main track. */
int
at(SpanRecorder &rec, const char *name, int64_t t0, int64_t t1,
   int parent = -1, int64_t id = -1)
{
    return rec.add(name, t0, t1, parent, id, kMainTrack);
}

TEST(SpanRecorder, BeginEndNestLikeACallStack)
{
    SpanRecorder rec;
    const int outer = rec.begin("outer", 7);
    const int inner = rec.begin("inner", 7);
    rec.end(inner);
    const int sibling = rec.begin("sibling");
    rec.end(sibling);
    rec.end(outer);
    const int next = rec.begin("next");
    rec.end(next);

    EXPECT_EQ(rec.span(outer).parent, -1);
    EXPECT_EQ(rec.span(inner).parent, outer);
    EXPECT_EQ(rec.span(sibling).parent, outer);
    EXPECT_EQ(rec.span(next).parent, -1);
    EXPECT_EQ(rec.span(inner).id, 7);
    EXPECT_FALSE(rec.hasOpenSpans());
    EXPECT_LE(rec.span(outer).start_ns, rec.span(inner).start_ns);
    EXPECT_LE(rec.span(inner).end_ns, rec.span(sibling).start_ns);
    EXPECT_LE(rec.span(sibling).end_ns, rec.span(outer).end_ns);
}

TEST(SpanRecorder, ScopedSpanClosesOnScopeExit)
{
    SpanRecorder rec;
    int idx = -1;
    {
        ScopedSpan outer(rec, "outer");
        ScopedSpan inner(rec, "inner");
        idx = inner.index();
        EXPECT_TRUE(rec.hasOpenSpans());
    }
    EXPECT_FALSE(rec.hasOpenSpans());
    EXPECT_EQ(rec.span(idx).parent, 0);
}

TEST(SpanRecorder, OutOfOrderEndIsRejected)
{
    SpanRecorder rec;
    const int outer = rec.begin("outer");
    rec.begin("inner");
    EXPECT_THROW(rec.end(outer), std::logic_error);
}

TEST(SpanRecorder, ExplicitSpansAreValidated)
{
    SpanRecorder rec;
    EXPECT_THROW(at(rec, "backwards", 10, 5), std::logic_error);
    EXPECT_THROW(at(rec, "orphan", 0, 5, /*parent=*/3), std::logic_error);
}

TEST(SpanRecorder, ChromeJsonCarriesEveryField)
{
    SpanRecorder rec;
    const int root = at(rec, "root", 1000, 5000);
    const int child = at(rec, "child", 2000, 3000, root, 42);
    rec.arg(child, "gemm_s", 0.5);
    rec.add("request", 2000, 4000, root, 9, kMainTrack + 1);
    const std::string json = rec.chromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"child\", \"ts\": 2, \"dur\": 1, "
                        "\"args\": {\"parent\": \"root\", \"id\": 42, "
                        "\"gemm_s\": 0.5}"),
              std::string::npos);
    EXPECT_NE(json.find("\"tid\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
}

TEST(Budget, ChildrenAndUnattributedSumToParent)
{
    SpanRecorder rec;
    const int root = at(rec, "episode", 0, 100);
    for (int step = 0; step < 2; ++step) {
        const int64_t base = 10 + 40 * step;
        const int s = at(rec, "step", base, base + 40, root, step);
        at(rec, "fwd", base, base + 10, s, step);
        at(rec, "bwd", base + 10, base + 30, s, step);
    }
    // Overlapping lifetimes on another track are not stack-shaped and
    // must not be charged to their parent.
    rec.add("request", 0, 100, root, 0, kMainTrack + 1);

    BudgetNode tree = budgetFromSpans(rec.spans(), root);
    ASSERT_EQ(tree.children.size(), 1u);
    const BudgetNode &steps = tree.children[0];
    EXPECT_EQ(steps.name, "step");
    EXPECT_EQ(steps.count, 2);
    EXPECT_DOUBLE_EQ(steps.seconds, 80e-9);
    ASSERT_EQ(steps.children.size(), 2u);
    EXPECT_DOUBLE_EQ(steps.children[0].seconds, 20e-9);
    EXPECT_DOUBLE_EQ(steps.children[1].seconds, 40e-9);

    closeBudget(tree);
    ASSERT_EQ(tree.children.size(), 2u);
    EXPECT_EQ(tree.children[1].name, "unattributed");
    EXPECT_DOUBLE_EQ(tree.children[1].seconds, 20e-9);
    const BudgetNode *step_row = findRow(tree, "step");
    ASSERT_NE(step_row, nullptr);
    ASSERT_EQ(step_row->children.size(), 3u);
    EXPECT_DOUBLE_EQ(step_row->children[2].seconds, 20e-9);
    EXPECT_DOUBLE_EQ(sumRows(tree, "unattributed"), 40e-9);
    // Leaves stay leaves.
    EXPECT_TRUE(findRow(tree, "fwd")->children.empty());
}

TEST(Budget, DerivedChildrenUseTheNamedRemainder)
{
    SpanRecorder rec;
    const int root = at(rec, "run", 0, 1000);
    BudgetNode tree = budgetFromSpans(rec.spans(), root);
    BudgetNode gemm;
    gemm.name = "gemm";
    gemm.seconds = 400e-9;
    tree.children.push_back(gemm);
    tree.remainder = "non_gemm";
    closeBudget(tree);
    ASSERT_EQ(tree.children.size(), 2u);
    EXPECT_EQ(tree.children[1].name, "non_gemm");
    EXPECT_DOUBLE_EQ(tree.children[1].seconds, 600e-9);
    EXPECT_DOUBLE_EQ(sumRows(tree, "unattributed"), 0.0);
    const std::string text = renderBudget(tree);
    EXPECT_NE(text.find("non_gemm"), std::string::npos);
    EXPECT_NE(text.find("60.0%"), std::string::npos);
}

TEST(Stats, QuantilesInterpolate)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    std::vector<double> v;
    for (int i = 0; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(quantile(v, 0.95), 95.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100.0);
    EXPECT_EQ(countAbove(v, quantile(v, 0.9)), 10);
}

TEST(Json, QuoteEscapes)
{
    EXPECT_EQ(jsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

} // namespace
} // namespace perfbench
