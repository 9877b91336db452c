#include "telemetry/trace.h"

#include <cstdio>

#include <unistd.h>

namespace snip {
namespace trace {

namespace {

using detail::Ring;
using detail::SpanCell;
using telemetry::Timer;

const char *const kCategoryNames[kNumCategories] = {
    "train", "scheme", "pool", "gemm", "attn", "serve", "quant"};

/** The category of each timer's spans, in Timer order. */
const Category kTimerCategory[] = {
    Category::Gemm,   // Gemm
    Category::Attn,   // AttnFwd
    Category::Attn,   // AttnBwd
    Category::Pool,   // PoolJob
    Category::Scheme, // SchemeWait
    Category::Train,  // Step
    Category::Train,  // SchemeApply
    Category::Train,  // Fwd
    Category::Train,  // Bwd
    Category::Train,  // Optim
    Category::Scheme, // SchemeSolve
    Category::Scheme, // HandoffWait
    Category::Serve,  // Prefill
    Category::Serve,  // DecodeStep
    Category::Quant,  // Quantize
};
static_assert(sizeof(kTimerCategory) / sizeof(kTimerCategory[0]) ==
                  telemetry::kNumTimers,
              "one category per timer");

/** Steady-clock origin shared by every span. Resolved once on first
 *  use (thread-safe magic static; no lock or allocation afterwards). */
int64_t
epochNs()
{
    static const int64_t epoch = telemetry::detail::clockNs();
    return epoch;
}

/** A consistent copy of one cell, or failure when the read raced the
 *  owner mid-rewrite (seqlock double-check). */
struct SpanCopy
{
    int64_t ts_ns = 0;
    int64_t dur_ns = 0;
    int cat = 0;
    const char *name = nullptr;
    const char *arg_key[2] = {nullptr, nullptr};
    int64_t arg_val[2] = {0, 0};
};

bool
readCell(const SpanCell &c, uint64_t ticket, SpanCopy *out)
{
    if (c.seq.load(std::memory_order_acquire) != ticket)
        return false;
    out->ts_ns = c.ts_ns.load(std::memory_order_relaxed);
    out->dur_ns = c.dur_ns.load(std::memory_order_relaxed);
    out->cat = c.cat.load(std::memory_order_relaxed);
    out->name = c.name.load(std::memory_order_relaxed);
    out->arg_key[0] = c.arg_key[0].load(std::memory_order_relaxed);
    out->arg_val[0] = c.arg_val[0].load(std::memory_order_relaxed);
    out->arg_key[1] = c.arg_key[1].load(std::memory_order_relaxed);
    out->arg_val[1] = c.arg_val[1].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    return c.seq.load(std::memory_order_relaxed) == ticket &&
           out->name != nullptr;
}

void
appendEvent(std::string &out, int64_t pid, int tid, const SpanCopy &s,
            bool first)
{
    if (!first)
        out += ",\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"ph\": \"X\", \"pid\": %lld, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<long long>(pid), tid,
                  static_cast<double>(s.ts_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3);
    out += buf;
    out += ", \"cat\": \"";
    out += (s.cat >= 0 && s.cat < kNumCategories)
               ? kCategoryNames[s.cat]
               : "other";
    out += "\", \"name\": \"";
    telemetry::detail::appendEscaped(out, s.name);
    out += "\"";
    if (s.arg_key[0] != nullptr || s.arg_key[1] != nullptr) {
        out += ", \"args\": {";
        bool first_arg = true;
        for (int a = 0; a < 2; ++a) {
            if (s.arg_key[a] == nullptr)
                continue;
            if (!first_arg)
                out += ", ";
            first_arg = false;
            out += "\"";
            telemetry::detail::appendEscaped(out, s.arg_key[a]);
            std::snprintf(buf, sizeof(buf), "\": %lld",
                          static_cast<long long>(s.arg_val[a]));
            out += buf;
        }
        out += "}";
    }
    out += "}";
}

void
appendThreadNameEvent(std::string &out, int64_t pid, int tid,
                      const char *name, bool first)
{
    if (!first)
        out += ",\n";
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "    {\"ph\": \"M\", \"pid\": %lld, \"tid\": %d, "
                  "\"name\": \"thread_name\", \"args\": {\"name\": \"",
                  static_cast<long long>(pid), tid);
    out += buf;
    telemetry::detail::appendEscaped(out, name);
    out += "\"}}";
}

} // namespace

namespace detail {

std::string
renderChrome(const std::vector<Slot *> &slots)
{
    const int64_t pid = static_cast<int64_t>(::getpid());
    std::string doc = "{\"traceEvents\": [\n";
    bool first = true;
    for (const Slot *slot : slots) {
        const Ring *r = slot->ring;
        if (r == nullptr)
            continue;
        if (const char *tn =
                r->thread_name.load(std::memory_order_acquire)) {
            appendThreadNameEvent(doc, pid, slot->tid, tn, first);
            first = false;
        }
        const uint64_t head = r->head.load(std::memory_order_acquire);
        const uint64_t cap = static_cast<uint64_t>(kRingCapacity);
        const uint64_t lo = head > cap ? head - cap + 1 : 1;
        for (uint64_t ticket = lo; ticket <= head; ++ticket) {
            SpanCopy s;
            if (!readCell(r->cells[(ticket - 1) % cap], ticket, &s))
                continue; // torn by a concurrent writer; skip
            appendEvent(doc, pid, slot->tid, s, first);
            first = false;
        }
    }
    doc += "\n  ], \"displayTimeUnit\": \"ms\"}\n";
    return doc;
}

} // namespace detail

int64_t
nowNs()
{
    return telemetry::detail::clockNs() - epochNs();
}

void
setCurrentThreadName(const char *name)
{
    if (enabled())
        detail::ring().thread_name.store(name, std::memory_order_release);
}

} // namespace trace

namespace telemetry {
namespace detail {

void
publishSpan(Timer t, const char *name, int64_t t0_clock_ns,
            int64_t dur_ns, const char *k0, int64_t v0, const char *k1,
            int64_t v1)
{
    trace::detail::publish(trace::detail::ring(),
                           trace::kTimerCategory[static_cast<int>(t)],
                           name, t0_clock_ns - trace::epochNs(), dur_ns,
                           k0, v0, k1, v1);
}

} // namespace detail
} // namespace telemetry
} // namespace snip
