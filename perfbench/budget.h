/**
 * @file
 * Outside-in tracing for the end-to-end benchmark: an in-memory span
 * recorder (written once, at exit, as Chrome trace-event JSON that
 * tools/trace_report.py reads), the per-layer budget tree built from
 * those spans, and the sample statistics the benchmark reports.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library's public API; the library itself is not instrumented. A
 * budget tree's children always sum to their parent: the part of a
 * parent no child covers is an explicit remainder row, named
 * "unattributed" unless the caller knows what the remainder is.
 */
#ifndef SNIP_PERFBENCH_BUDGET_H
#define SNIP_PERFBENCH_BUDGET_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Track of the benchmark's own (stack-shaped) spans. */
constexpr int64_t kMainTrack = 1;

/** One closed span. Times are nanoseconds since the recorder's origin. */
struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Step or request id, -1 for none. */
    int64_t id = -1;
    /** Trace track. Only spans on their parent's track count toward
     *  the parent's budget; other tracks hold overlapping lifetimes
     *  (serve requests) that are not stack-shaped. */
    int64_t track = kMainTrack;
    std::vector<std::pair<std::string, double>> args;

    double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/** Spans kept in memory; begin()/end() nest like a call stack. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Nanoseconds since this recorder was created. */
    int64_t nowNs() const;

    /** Open a span nested in the innermost open one; returns its
     *  index. */
    int begin(const std::string &name, int64_t id = -1);

    /** Close span @p index, which must be the innermost open span. */
    void end(int index);

    /** Record a closed span with explicit times (lifetimes known only
     *  after the fact, such as serve requests). */
    int add(const std::string &name, int64_t start_ns, int64_t end_ns,
            int parent, int64_t id, int64_t track);

    /** Attach a numeric argument to span @p index. */
    void arg(int index, const std::string &key, double value);

    const Span &span(int index) const { return spans_.at(index); }
    const std::vector<Span> &spans() const { return spans_; }
    bool hasOpenSpans() const { return !open_.empty(); }

    /** Chrome trace-event document ({"traceEvents": [...]}). */
    std::string chromeJson() const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name, int64_t id = -1)
        : rec_(rec), index_(rec.begin(name, id))
    {
    }
    ~ScopedSpan() { rec_.end(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder &rec_;
    int index_;
};

/** A row of the budget: seconds spent, split into children. */
struct BudgetNode
{
    std::string name;
    double seconds = 0.0;
    /** Number of spans folded into this row (0 for derived rows). */
    int64_t count = 0;
    std::vector<BudgetNode> children;
    /** Name of the row that holds seconds minus the children's sum. */
    std::string remainder = "unattributed";
};

/**
 * Fold the spans below @p root into a tree: same-track children are
 * grouped by name (durations and counts summed), recursively.
 */
BudgetNode budgetFromSpans(const std::vector<Span> &spans, int root);

/**
 * Append to every node with children one remainder row holding the
 * node's seconds minus its children's sum, so that every node's
 * children sum exactly to it. Leaves stay leaves. Appending may
 * reallocate child vectors: pointers from findRow() taken before the
 * call dangle after it.
 */
void closeBudget(BudgetNode &node);

/** Row named @p name anywhere under @p node (depth-first), or null. */
const BudgetNode *findRow(const BudgetNode &node, const std::string &name);
BudgetNode *findRow(BudgetNode &node, const std::string &name);

/** Total seconds of every row named @p name under @p node. */
double sumRows(const BudgetNode &node, const std::string &name);

/** Indented text rendering, with each row's share of the root. */
std::string renderBudget(const BudgetNode &node);

/** @p s as a JSON string literal, quotes included. */
std::string jsonQuote(const std::string &s);

/** Median (average of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> values);

/** Linearly interpolated quantile, q in [0, 1]; 0 if empty. */
double quantile(std::vector<double> values, double q);

/** Samples strictly greater than @p threshold. */
int64_t countAbove(const std::vector<double> &values, double threshold);

} // namespace perfbench

#endif // SNIP_PERFBENCH_BUDGET_H
