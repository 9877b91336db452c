/**
 * @file
 * The span sink of the instrumentation registry (telemetry.h): the
 * per-thread flight-recorder ring and its Chrome trace-event JSON
 * export (open it in https://ui.perfetto.dev or chrome://tracing).
 *
 * Spans are opened with telemetry::Scope, which also feeds the
 * telemetry timers; this header holds what is specific to the ring:
 * the cell layout, record() for spans whose start lies in the past
 * (the serving engine's backdated `queued` and `request` spans), and
 * the export. A ring is a flight recorder: when it wraps, the NEWEST
 * spans win (the telemetry timers keep the per-run totals). Cells are
 * seqlock-stamped, so a drain that races the owning writer skips torn
 * cells instead of exporting garbage. Span names and arg keys are
 * static strings — recording never copies or hashes text.
 *
 * Enabling: SNIP_TRACE=off (default) | on (record in memory) |
 * json:<path> (also write the document at exit/flush()), or
 * configure() (e.g. `serve_throughput --trace`).
 *
 * The document is the Chrome trace-event format:
 * {"traceEvents": [{"ph": "X", "pid": ..., "tid": ..., "ts": <us>,
 * "dur": <us>, "cat": ..., "name": ..., "args": {...}}, ...]} plus
 * thread-name metadata events. `tools/trace_report.py` summarizes one
 * (per-category time, slowest requests, decode-width histogram) and
 * structurally validates it in CI (--check).
 */
#ifndef SNIP_TELEMETRY_TRACE_H
#define SNIP_TELEMETRY_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace snip {
namespace trace {

/** Span category; exported as the Chrome event "cat" field so
 *  Perfetto can color/filter by subsystem. */
enum class Category : int
{
    Train,  ///< trainStep phases: fwd, bwd, optim, scheme_apply
    Scheme, ///< async update service: solve, handoff_wait
    Pool,   ///< sampled parallelFor jobs
    Gemm,   ///< GEMM driver invocations
    Attn,   ///< attention fwd/bwd core invocations
    Serve,  ///< request lifecycle: queued, prefill, decode_step, ...
    Quant,  ///< materializing fake quantization (FakeQuantizer)
    kCount
};

constexpr int kNumCategories = static_cast<int>(Category::kCount);

/** Spans retained per thread before the flight recorder wraps and the
 *  oldest are overwritten (newest always win). */
constexpr int64_t kRingCapacity = 8192;

namespace detail {

/** One recorded span. Fields are atomics purely so a concurrent
 *  drain is defined behavior; the owning thread writes them with
 *  relaxed stores. `seq` is the publish ticket (seqlock stamp): it is
 *  zeroed before the fields are rewritten and re-stamped last, and the
 *  reader re-checks it after copying the fields. */
struct SpanCell
{
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> ts_ns{0};
    std::atomic<int64_t> dur_ns{0};
    std::atomic<int> cat{0};
    std::atomic<const char *> name{nullptr};
    std::atomic<const char *> arg_key[2]{};
    std::atomic<int64_t> arg_val[2]{};
};

/** One thread's flight recorder, intentionally leaked (a dead
 *  thread's spans stay exportable, and thread_local destruction order
 *  stays irrelevant). */
struct Ring
{
    SpanCell cells[kRingCapacity];
    /** Publish ticket of the newest span (1-based; owner-only relaxed
     *  load+store increments, never an RMW). */
    std::atomic<uint64_t> head{0};
    /** Optional static display name (Perfetto thread_name metadata). */
    std::atomic<const char *> thread_name{nullptr};
};

using telemetry::detail::Slot;

/** Allocate the calling thread's ring (registry slow path). */
Ring &ringSlow();

inline Ring &
ring()
{
    Slot *s = telemetry::detail::t_slot;
    return s != nullptr && s->ring != nullptr ? *s->ring : ringSlow();
}

/** Append one span to @p r (owner thread only). */
inline void
publish(Ring &r, Category cat, const char *name, int64_t ts_ns,
        int64_t dur_ns, const char *k0, int64_t v0, const char *k1,
        int64_t v1)
{
    const uint64_t ticket = r.head.load(std::memory_order_relaxed) + 1;
    SpanCell &c =
        r.cells[(ticket - 1) % static_cast<uint64_t>(kRingCapacity)];
    // Seqlock publish: invalidate, write fields, stamp, bump head.
    c.seq.store(0, std::memory_order_release);
    // A release store orders the stores BEFORE it, not the field
    // stores after it, so without this fence a reader could see new
    // fields next to the old stamp and accept a torn cell (Boehm, "Can
    // seqlocks get along with programming language memory models?",
    // 2012). It pairs with the reader's acquire fence; on x86-64 it
    // emits no instruction.
    std::atomic_thread_fence(std::memory_order_release);
    c.ts_ns.store(ts_ns, std::memory_order_relaxed);
    c.dur_ns.store(dur_ns, std::memory_order_relaxed);
    c.cat.store(static_cast<int>(cat), std::memory_order_relaxed);
    c.name.store(name, std::memory_order_relaxed);
    c.arg_key[0].store(k0, std::memory_order_relaxed);
    c.arg_val[0].store(v0, std::memory_order_relaxed);
    c.arg_key[1].store(k1, std::memory_order_relaxed);
    c.arg_val[1].store(v1, std::memory_order_relaxed);
    c.seq.store(ticket, std::memory_order_release);
    r.head.store(ticket, std::memory_order_release);
}

/** The Chrome document over every ring hanging off @p slots (caller
 *  holds the registry lock that guards the vector). */
std::string renderChrome(const std::vector<Slot *> &slots);

} // namespace detail

/** True when tracing is recording (hot-path fast check). */
inline bool
enabled()
{
    return (telemetry::detail::mode() & telemetry::detail::kTraceBit) != 0;
}

/** Monotonic nanoseconds since the process's trace epoch (the first
 *  trace query). All span timestamps share this epoch, so spans from
 *  different threads line up on one timeline. */
int64_t nowNs();

/**
 * Record one complete span [@p ts_ns, @p ts_ns + @p dur_ns) on the
 * calling thread's ring; for spans whose start lies in the past (a
 * Scope covers the rest). No-op when disabled. @p name and the arg
 * keys must be string literals (or otherwise outlive the process).
 * Zero heap allocations once this thread's ring exists.
 */
inline void
record(Category cat, const char *name, int64_t ts_ns, int64_t dur_ns,
       const char *k0 = nullptr, int64_t v0 = 0,
       const char *k1 = nullptr, int64_t v1 = 0)
{
    if (enabled())
        detail::publish(detail::ring(), cat, name, ts_ns, dur_ns, k0, v0,
                        k1, v1);
}

/** Name the calling thread on the exported timeline (Perfetto
 *  thread_name metadata). @p name must be a static string. No-op when
 *  disabled. */
void setCurrentThreadName(const char *name);

/** Render the Chrome trace-event JSON document from every thread's
 *  ring (newest <= kRingCapacity spans per thread). Any thread; safe
 *  concurrently with writers (torn cells are skipped). */
std::string renderJson();

/** Write the document to the configured json path now (atomic tmp +
 *  rename). No-op without a path. Returns false on I/O error. */
bool flush();

/** Spans currently resident across all rings (post-wrap: at most
 *  kRingCapacity per thread). */
int64_t spansRecorded();

/** Programmatic configuration (tests, benches); overrides the
 *  environment. Rings are NOT cleared (spans already recorded stay
 *  exportable); the trace bit and sink path are replaced and the
 *  telemetry bit is left as it was. */
struct Config
{
    bool enabled = false;
    /** Empty = record in memory only. */
    std::string json_path;
};

void configure(const Config &config);

/** Parse a SNIP_TRACE-style spec ("off" | "on" | "json:<path>") and
 *  configure() from it. Returns false (no change) on a malformed
 *  spec. */
bool configureFromSpec(const char *spec);

} // namespace trace
} // namespace snip

#endif // SNIP_TELEMETRY_TRACE_H
