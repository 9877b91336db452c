/**
 * @file
 * Instrumentation: one per-thread registry behind two sinks.
 *
 *  - Telemetry ("how much"): counters, gauges and histogram-backed
 *    timers, folded into a global snapshot at step/bench boundaries
 *    and exported as a per-step JSON time series.
 *  - Tracing ("when"): a flight recorder of timestamped spans per
 *    thread, exported as Chrome trace-event JSON (telemetry/trace.h
 *    owns that format).
 *
 * One primitive feeds both: a telemetry::Scope keyed by a Timer reads
 * the clock once on entry and once on exit; on close it adds to the
 * timer's histogram when telemetry is on and publishes a span cell
 * when tracing is on. Every span therefore has a per-run total in the
 * telemetry shards that survives the trace ring wrapping.
 *
 * Design (the YTsaurus profiling_manager idiom adapted to the
 * ThreadPool determinism contract):
 *
 *  - Every metric is a fixed enum slot, so the hot path is an array
 *    index — no string hashing, no maps, no locks.
 *  - Each thread owns one Slot (created on first use, registered once,
 *    never freed): its shard cells plus a pointer to its span ring,
 *    which is allocated on the thread's first traced span and never
 *    while tracing is off. The owning thread updates cells with plain
 *    relaxed load+store pairs — never an atomic RMW, never a lock — so
 *    instrumented kernels pay a couple of L1 accesses per event. Cells
 *    are std::atomic only so the folding reader is race-free in the
 *    C++ memory model; on x86-64 the relaxed load/store compile to
 *    plain MOVs.
 *  - Cells accumulate *cumulatively* and are never reset. A fold
 *    (telemetry::stepBoundary / telemetry::snapshot) sums the slots
 *    and reports per-step deltas against the previous fold, so a
 *    thread that keeps writing concurrently (the async scheme worker)
 *    can never lose an update to a reset race — at worst its latest
 *    events land in the next step's delta.
 *  - Instrumentation observes, it never steers: no kernel branches on
 *    a recorded value, so enabling either sink cannot perturb the
 *    bit-exactness contract. With both sinks off every hot-path call
 *    is a single relaxed load of the mode word and a predicted branch.
 *
 * Enabling: one mode word with a telemetry bit and a trace bit,
 * resolved once from the environment —
 *
 *   SNIP_TELEMETRY=off          disabled (default when unset)
 *   SNIP_TELEMETRY=on           collect in memory (snapshot())
 *   SNIP_TELEMETRY=json:<path>  collect and write the per-step JSON
 *                               time series to <path>
 *   SNIP_TRACE=off|on|json:<path>  the same grammar for the span
 *                               recorder (see telemetry/trace.h)
 *
 * or programmatically via configure() / trace::configure() (tests,
 * benches); configuring one sink leaves the other sink's bit as it
 * was. JSON exports are written atomically (tmp + rename, so a
 * concurrent reader always sees a complete document) at flush() and
 * by one exit hook that flushes both sinks.
 *
 * The telemetry document: {"schema": "snip-telemetry-v1", "meta":
 * {...}, "series": [ {per-step record}, ... ], "totals": {...}}. Each
 * step record carries the deltas for that step grouped by subsystem
 * (gemm, pack_cache, arena, pool, attn, scheme, serve, faults,
 * solve_cache) plus derived rates; totals carries the cumulative
 * histogram of every timer. See README "Instrumentation".
 */
#ifndef SNIP_TELEMETRY_TELEMETRY_H
#define SNIP_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace snip {
namespace trace {
namespace detail {
struct Ring;
} // namespace detail
} // namespace trace

namespace telemetry {

/** Monotonic event counts (fold = sum across shards; exported as
 *  per-step deltas). Deterministic workloads produce thread-count-
 *  independent totals for all of these (tests/test_telemetry.cpp). */
enum class Counter : int
{
    GemmCalls,         ///< GEMM driver invocations
    GemmBatchedItems,  ///< items executed by strided-batch drivers
    GemmFlops,         ///< 2*m*n*k summed over all GEMM work
    PackCacheHits,     ///< PackedWeightCache: panel served as-is
    PackCacheRebuilds, ///< PackedWeightCache: panel (re)packed
    PoolJobs,          ///< parallelFor invocations (incl. inline)
    PoolChunks,        ///< chunks those invocations were cut into
    SolveCacheHits,    ///< ILP SolveCache lookup hits
    SolveCacheMisses,  ///< ILP SolveCache lookup misses
    SolveCacheEvicts,  ///< ILP SolveCache LRU evictions
    SchemeUpdates,     ///< scheme updates applied to the model
    SchemeSolveCached, ///< ... whose ILP came from the solve cache
    SchemePublishes,   ///< results published by the update service
    SchemeUpdateSkips, ///< failed updates resolved by keeping the
                       ///< current scheme (skip-update semantics)
    ServeRequests,     ///< requests retired by the serving engine
    ServePrefillTokens,///< prompt tokens prefilled
    ServeDecodeTokens, ///< tokens produced by decode steps
    ServeDecodeSteps,  ///< coalesced decode iterations
    ServeRejected,     ///< requests rejected at admission
    ServePreempted,    ///< sequences cancelled to relieve the KV pool
    ServeExpired,      ///< requests cancelled past their deadline
    KvPageAllocs,      ///< KV-cache pages taken from the free list
    KvPageReleases,    ///< KV-cache pages returned on retirement
    FaultsInjected,    ///< injected faults fired (SNIP_FAULT)
    kCount
};

/** Wall-clock accumulators (fold = sum; exported as deltas). */
enum class Seconds : int
{
    PoolBusy,     ///< worker seconds inside parallelFor chunks
    PoolWall,     ///< submitter seconds inside parallelFor
    SchemeWork,   ///< Steps 4-5 worker wall (controller accounting)
    SchemeHidden, ///< ... portion overlapped with training
    SchemeExposed,///< ... portion the trainer waited for
    SchemeWorker, ///< update-service worker busy seconds
    kCount
};

/** High-water marks (owner keeps a running max; fold = max across
 *  shards; exported as the cumulative value). */
enum class MaxGauge : int
{
    ArenaHighWaterBytes, ///< peak bytes live in any one arena episode
    KvPagesPeak,         ///< peak KV-cache pages in use
    kCount
};

/** Last-value gauges (owner overwrites; fold = sum across shards). */
enum class LastGauge : int
{
    ArenaReservedBytes, ///< slab bytes currently owned per arena
    // Serve gauges are owned by the single engine thread (LastGauge
    // folds by summing shards, so only one thread may write them).
    KvPagesInUse,       ///< KV-cache pages currently allocated
    ServeActiveSeqs,    ///< sequences in the engine's active batch
    kCount
};

/** Histogram-backed timers: count + total seconds + log2(ns) buckets
 *  (fold = sum; exported as deltas). Each Scope-instrumented span has
 *  one; the trace category of its span follows from the timer. */
enum class Timer : int
{
    Gemm,        ///< one GEMM driver invocation (all four drivers)
    AttnFwd,     ///< one attentionForwardCore invocation
    AttnBwd,     ///< one attentionBackwardCore invocation
    PoolJob,     ///< one parallelFor, submitter wall
    SchemeWait,  ///< one handoff: trainer blocked at apply boundary,
                 ///< including any earlier checkpoint-time wait
    Step,        ///< one Trainer::trainStep
    SchemeApply, ///< ... its scheme apply boundary
    Fwd,         ///< ... its forward + loss
    Bwd,         ///< ... its backward
    Optim,       ///< ... its optimizer step
    SchemeSolve, ///< one scheme-update solve (Steps 4-5)
    HandoffWait, ///< one blocking wait on the update service
    Prefill,     ///< one serving prefill forward
    DecodeStep,  ///< one coalesced serving decode iteration
    kCount
};

constexpr int kNumCounters = static_cast<int>(Counter::kCount);
constexpr int kNumSeconds = static_cast<int>(Seconds::kCount);
constexpr int kNumMaxGauges = static_cast<int>(MaxGauge::kCount);
constexpr int kNumLastGauges = static_cast<int>(LastGauge::kCount);
constexpr int kNumTimers = static_cast<int>(Timer::kCount);
/** Bucket i holds durations in [2^(i-1), 2^i) nanoseconds; the last
 *  bucket absorbs everything >= ~134 ms. */
constexpr int kTimerBuckets = 28;

namespace detail {

/** One thread's instrumentation state. The cells are atomics purely
 *  so the folding reader is defined behavior; the owner is the only
 *  writer and uses relaxed load+store (a plain add on x86-64). Every
 *  cell starts at zero (value-initialized). */
struct alignas(64) Slot
{
    std::atomic<int64_t> counters[kNumCounters]{};
    std::atomic<double> seconds[kNumSeconds]{};
    std::atomic<int64_t> max_gauges[kNumMaxGauges]{};
    std::atomic<int64_t> last_gauges[kNumLastGauges]{};
    struct TimerCell
    {
        std::atomic<int64_t> count{0};
        std::atomic<double> sum_seconds{0.0};
        std::atomic<int64_t> buckets[kTimerBuckets]{};
    };
    TimerCell timers[kNumTimers];

    /** This thread's span ring; null until its first traced span.
     *  Written once, by the owner, under the registry lock; read by
     *  the owner unlocked and by exporters under the lock. */
    trace::detail::Ring *ring = nullptr;
    /** Small stable thread id (1-based registration order). */
    int tid = 0;
};

/** Mode word bits. */
constexpr int kTelemetryBit = 1;
constexpr int kTraceBit = 2;

/** -1 = unresolved (parse SNIP_TELEMETRY and SNIP_TRACE on first
 *  use), else an OR of the bits above. */
extern std::atomic<int> g_mode;

int resolveMode();
Slot &slotSlow();

inline int
mode()
{
    const int m = g_mode.load(std::memory_order_relaxed);
    return m >= 0 ? m : resolveMode();
}

extern thread_local Slot *t_slot;

inline Slot &
slot()
{
    Slot *s = t_slot;
    return s != nullptr ? *s : slotSlow();
}

/** Owner-only add: relaxed load+store, never an RMW. */
template <typename T>
inline void
add(std::atomic<T> &cell, typename std::atomic<T>::value_type v)
{
    cell.store(cell.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
}

/** Raw steady-clock nanoseconds (the clock every scope reads). */
inline int64_t
clockNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One sample of @p t lasting @p seconds (= @p ns nanoseconds). */
inline void
recordSample(Timer t, double seconds, int64_t ns)
{
    Slot::TimerCell &cell = slot().timers[static_cast<int>(t)];
    add(cell.count, 1);
    add(cell.sum_seconds, seconds);
    int bucket = 0;
    while (ns > 0 && bucket < kTimerBuckets - 1) {
        ns >>= 1;
        ++bucket;
    }
    add(cell.buckets[bucket], 1);
}

/** Append @p s to @p out as the body of a JSON string (the one
 *  escaper both exports use). */
void appendEscaped(std::string &out, const char *s);

/** Publish one span of @p t on the calling thread's ring (trace.cpp;
 *  @p t0_clock_ns is a clockNs() reading). */
void publishSpan(Timer t, const char *name, int64_t t0_clock_ns,
                 int64_t dur_ns, const char *k0, int64_t v0,
                 const char *k1, int64_t v1);

} // namespace detail

/** True when telemetry is collecting (hot-path fast check). */
inline bool
enabled()
{
    return (detail::mode() & detail::kTelemetryBit) != 0;
}

// ------------------------------------------------------ hot-path API
// Every call is a no-op (one relaxed flag load) when disabled, and a
// couple of thread-local plain memory accesses when enabled. None of
// them can allocate once the calling thread's slot exists.

inline void
count(Counter c, int64_t v = 1)
{
    if (!enabled())
        return;
    detail::add(detail::slot().counters[static_cast<int>(c)], v);
}

inline void
addSeconds(Seconds s, double v)
{
    if (!enabled())
        return;
    detail::add(detail::slot().seconds[static_cast<int>(s)], v);
}

inline void
gaugeMax(MaxGauge g, int64_t v)
{
    if (!enabled())
        return;
    std::atomic<int64_t> &cell =
        detail::slot().max_gauges[static_cast<int>(g)];
    if (v > cell.load(std::memory_order_relaxed))
        cell.store(v, std::memory_order_relaxed);
}

inline void
gaugeSet(LastGauge g, int64_t v)
{
    if (!enabled())
        return;
    detail::slot().last_gauges[static_cast<int>(g)].store(
        v, std::memory_order_relaxed);
}

/** Add one @p seconds sample to @p t (for durations not measured by
 *  a Scope, e.g. a wait that spans several calls). */
inline void
recordTimer(Timer t, double seconds)
{
    if (!enabled())
        return;
    detail::recordSample(t, seconds, static_cast<int64_t>(seconds * 1e9));
}

/**
 * The instrumentation scope: times [construction, close()) into @p t
 * when telemetry is on and records it as span @p name (category from
 * @p t, args captured at construction) when tracing is on. The clock
 * is read only when at least one sink is armed. @p name and the arg
 * keys must be string literals (the ring stores the pointers).
 *
 * @p trace_armed = false keeps a span out of the ring while still
 * timing it: the thread pool samples 1 in 16 jobs that way so its
 * fan-outs do not flood the flight recorder.
 */
class Scope
{
  public:
    Scope(Timer t, const char *name, const char *k0 = nullptr,
          int64_t v0 = 0, const char *k1 = nullptr, int64_t v1 = 0,
          bool trace_armed = true)
        : t_(t), name_(name), k0_(k0), v0_(v0), k1_(k1), v1_(v1),
          bits_(detail::mode() &
                (trace_armed ? detail::kTelemetryBit | detail::kTraceBit
                             : detail::kTelemetryBit))
    {
        if (bits_ != 0)
            t0_ns_ = detail::clockNs();
    }

    ~Scope() { (void)close(); }

    /** Record now instead of at destruction (idempotent). Returns the
     *  elapsed seconds, or 0 when no sink was armed. */
    double close()
    {
        if (bits_ == 0)
            return 0.0;
        const int64_t dur_ns = detail::clockNs() - t0_ns_;
        const double seconds = static_cast<double>(dur_ns) * 1e-9;
        if ((bits_ & detail::kTelemetryBit) != 0)
            detail::recordSample(t_, seconds, dur_ns);
        if ((bits_ & detail::kTraceBit) != 0)
            detail::publishSpan(t_, name_, t0_ns_, dur_ns, k0_, v0_,
                                k1_, v1_);
        bits_ = 0;
        return seconds;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Timer t_;
    const char *name_;
    const char *k0_;
    int64_t v0_;
    const char *k1_;
    int64_t v1_;
    int bits_;
    int64_t t0_ns_ = 0;
};

// ---------------------------------------------------- fold/export API

/** Cumulative totals across all shards at one fold point. */
struct Snapshot
{
    int64_t counters[kNumCounters] = {};
    double seconds[kNumSeconds] = {};
    int64_t max_gauges[kNumMaxGauges] = {};
    int64_t last_gauges[kNumLastGauges] = {};
    struct TimerStat
    {
        int64_t count = 0;
        double sum_seconds = 0.0;
        int64_t buckets[kTimerBuckets] = {};
    };
    TimerStat timers[kNumTimers];

    int64_t counter(Counter c) const
    {
        return counters[static_cast<int>(c)];
    }
    double secondsOf(Seconds s) const
    {
        return seconds[static_cast<int>(s)];
    }
    int64_t maxGauge(MaxGauge g) const
    {
        return max_gauges[static_cast<int>(g)];
    }
    int64_t lastGauge(LastGauge g) const
    {
        return last_gauges[static_cast<int>(g)];
    }
    const TimerStat &timer(Timer t) const
    {
        return timers[static_cast<int>(t)];
    }
};

/** Fold every shard into cumulative totals (cheap; any thread; safe
 *  concurrently with writers, which at worst land in the next fold). */
Snapshot snapshot();

/**
 * Close one step of the time series: fold, diff against the previous
 * boundary, append a step record tagged @p step, and periodically
 * rewrite the configured JSON file. Call at a point where no parallel
 * kernels are in flight (the trainer calls it once per trainStep).
 * No-op when disabled.
 */
void stepBoundary(int64_t step);

/** Rewrite the configured JSON file now (atomic tmp + rename). No-op
 *  without a path. Returns false on I/O error. */
bool flush();

/** Steps recorded since configure/enable (size of the series). */
int64_t stepsRecorded();

/** One-line human summary of the cumulative totals (fig12, logs). */
std::string summary();

/** Programmatic configuration (tests/benches); overrides the
 *  environment, resets the series, the baseline fold and the step
 *  clock — cumulative shard cells are NOT cleared (they are
 *  monotonic), so deltas restart cleanly from here. The trace bit is
 *  left as it was. */
struct Config
{
    bool enabled = false;
    /** Empty = collect in memory only. */
    std::string json_path;
    /** Rewrite the JSON file every this many boundaries (and at
     *  process exit / flush()). */
    int flush_every = 32;
};

void configure(const Config &config);

/** Parse a SNIP_TELEMETRY-style spec ("off" | "on" | "json:<path>")
 *  and configure() from it. Returns false (no change) on a malformed
 *  spec. */
bool configureFromSpec(const char *spec);

} // namespace telemetry
} // namespace snip

#endif // SNIP_TELEMETRY_TELEMETRY_H
