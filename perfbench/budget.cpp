#include "budget.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::begin(const std::string &name, int64_t id)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.id = id;
    s.start_ns = nowNs();
    s.end_ns = s.start_ns;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanRecorder::end(int index)
{
    if (open_.empty() || open_.back() != index)
        throw std::logic_error("span '" + spans_.at(index).name +
                               "' closed out of order");
    spans_[index].end_ns = nowNs();
    open_.pop_back();
}

int
SpanRecorder::add(const std::string &name, int64_t start_ns,
                  int64_t end_ns, int parent, int64_t id, int64_t track)
{
    if (end_ns < start_ns)
        throw std::logic_error("span '" + name + "' ends before it starts");
    if (parent >= static_cast<int>(spans_.size()))
        throw std::logic_error("span '" + name + "' has no such parent");
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = parent;
    s.id = id;
    s.track = track;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::arg(int index, const std::string &key, double value)
{
    spans_.at(index).args.emplace_back(key, value);
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
SpanRecorder::chromeJson() const
{
    std::string out = "{\"traceEvents\": [\n";
    std::set<int64_t> tracks;
    for (const Span &s : spans_)
        tracks.insert(s.track);
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };
    for (int64_t t : tracks) {
        sep();
        out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": " +
               std::to_string(t) +
               ", \"name\": \"thread_name\", \"args\": {\"name\": " +
               jsonQuote(t == kMainTrack
                              ? "benchmark"
                              : "lane " + std::to_string(t)) +
               "}}";
    }
    for (const Span &s : spans_) {
        sep();
        out += "{\"ph\": \"X\", \"pid\": 1, \"tid\": " +
               std::to_string(s.track) + ", \"cat\": \"perfbench\"" +
               ", \"name\": " + jsonQuote(s.name) +
               ", \"ts\": " + jsonNumber(s.start_ns / 1e3) +
               ", \"dur\": " + jsonNumber((s.end_ns - s.start_ns) / 1e3) +
               ", \"args\": {\"parent\": " +
               jsonQuote(s.parent >= 0 ? spans_[s.parent].name : "") +
               ", \"id\": " + std::to_string(s.id);
        for (const auto &kv : s.args)
            out += ", " + jsonQuote(kv.first) + ": " +
                   jsonNumber(kv.second);
        out += "}}";
    }
    out += "\n]}\n";
    return out;
}

namespace {

BudgetNode
foldGroup(const std::vector<Span> &spans,
          const std::vector<std::vector<int>> &kids,
          const std::vector<int> &group)
{
    BudgetNode node;
    node.name = spans[group.front()].name;
    std::vector<std::string> order;
    std::map<std::string, std::vector<int>> by_name;
    for (int i : group) {
        node.seconds += spans[i].seconds();
        ++node.count;
        for (int c : kids[i]) {
            if (spans[c].track != spans[i].track)
                continue;
            auto &members = by_name[spans[c].name];
            if (members.empty())
                order.push_back(spans[c].name);
            members.push_back(c);
        }
    }
    for (const std::string &name : order)
        node.children.push_back(foldGroup(spans, kids, by_name[name]));
    return node;
}

} // namespace

BudgetNode
budgetFromSpans(const std::vector<Span> &spans, int root)
{
    if (root < 0 || root >= static_cast<int>(spans.size()))
        throw std::logic_error("budget root out of range");
    std::vector<std::vector<int>> kids(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            kids[spans[i].parent].push_back(static_cast<int>(i));
    return foldGroup(spans, kids, {root});
}

void
closeBudget(BudgetNode &node)
{
    if (node.children.empty())
        return;
    double covered = 0.0;
    for (BudgetNode &child : node.children) {
        closeBudget(child);
        covered += child.seconds;
    }
    BudgetNode rest;
    rest.name = node.remainder;
    rest.seconds = node.seconds - covered;
    node.children.push_back(std::move(rest));
}

const BudgetNode *
findRow(const BudgetNode &node, const std::string &name)
{
    if (node.name == name)
        return &node;
    for (const BudgetNode &child : node.children)
        if (const BudgetNode *hit = findRow(child, name))
            return hit;
    return nullptr;
}

BudgetNode *
findRow(BudgetNode &node, const std::string &name)
{
    return const_cast<BudgetNode *>(
        findRow(static_cast<const BudgetNode &>(node), name));
}

double
sumRows(const BudgetNode &node, const std::string &name)
{
    double total = node.name == name ? node.seconds : 0.0;
    for (const BudgetNode &child : node.children)
        total += sumRows(child, name);
    return total;
}

namespace {

void
renderRow(const BudgetNode &node, double root_s, int depth,
          std::string &out)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%*s%-*s %10.4f s %6.1f%%", depth * 2,
                  "", 28 - depth * 2, node.name.c_str(), node.seconds,
                  root_s > 0.0 ? 100.0 * node.seconds / root_s : 0.0);
    out += buf;
    if (node.count > 0)
        out += "  (" + std::to_string(node.count) + ")";
    out += "\n";
    for (const BudgetNode &child : node.children)
        renderRow(child, root_s, depth + 1, out);
}

} // namespace

std::string
renderBudget(const BudgetNode &node)
{
    std::string out;
    renderRow(node, node.seconds, 0, out);
    return out;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t
countAbove(const std::vector<double> &values, double threshold)
{
    return std::count_if(values.begin(), values.end(),
                         [&](double v) { return v > threshold; });
}

} // namespace perfbench
