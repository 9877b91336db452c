#include "telemetry/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <unistd.h>

#include "runtime/env_config.h"
#include "runtime/fault_injection.h"
#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "telemetry/trace.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace snip {
namespace telemetry {

namespace detail {

std::atomic<int> g_mode{-1};
thread_local Slot *t_slot = nullptr;

} // namespace detail

namespace {

using detail::Slot;

/** The two export sinks (index into the per-sink flush stamps). */
enum Sink : int
{
    kTelemetrySink,
    kTraceSink,
    kNumSinks
};

/** Registry state behind every slow path (slot and ring creation,
 *  configuration, folds, export). Hot-path reads never take this
 *  lock. */
struct Registry
{
    /** Lock hierarchy: mu and flush_mu are never nested — a flusher
     *  renders under mu, releases it, then serializes the file write
     *  under flush_mu (SNIP_ACQUIRED_BEFORE documents the one legal
     *  order should that ever change). */
    util::Mutex mu SNIP_ACQUIRED_BEFORE(flush_mu);
    /** All slots ever created, in registration order (slot i has tid
     *  i + 1). Never freed: a dead thread's cells stay part of the
     *  cumulative totals and its spans stay exportable (and
     *  thread_local cleanup order stays irrelevant). Intentionally
     *  leaked, like the global thread pool. The vector is guarded;
     *  the CELLS are owner-written atomics the readers load relaxed
     *  (shards) or under the seqlock protocol (rings). */
    std::vector<Slot *> slots SNIP_GUARDED_BY(mu);

    Config telemetry_config SNIP_GUARDED_BY(mu);
    std::string trace_path SNIP_GUARDED_BY(mu);
    bool atexit_registered SNIP_GUARDED_BY(mu) = false;

    /** Baseline of the previous boundary (deltas are taken against
     *  it) and the boundary wall clock. */
    Snapshot prev SNIP_GUARDED_BY(mu);
    std::chrono::steady_clock::time_point prev_time
        SNIP_GUARDED_BY(mu);
    bool have_prev_time SNIP_GUARDED_BY(mu) = false;

    /** Rendered per-step JSON objects, joined at flush(). */
    std::vector<std::string> series SNIP_GUARDED_BY(mu);
    int boundaries_since_flush SNIP_GUARDED_BY(mu) = 0;

    /** Export writes happen outside mu (see flushSink), so concurrent
     *  flushers need their own serialization: the staging file name
     *  is pid-derived, and two unserialized writers would truncate
     *  each other's staging data mid-write. flush_seq (under mu)
     *  stamps each rendered document; flush_published (under
     *  flush_mu) drops a document that lost the race to a newer one
     *  of the same sink instead of publishing stale data over it. */
    util::Mutex flush_mu;
    uint64_t flush_seq[kNumSinks] SNIP_GUARDED_BY(mu) = {};
    uint64_t flush_published[kNumSinks] SNIP_GUARDED_BY(flush_mu) = {};
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked; see slots comment
    return *r;
}

Snapshot
foldLocked(Registry &reg) SNIP_REQUIRES(reg.mu)
{
    Snapshot out;
    for (const Slot *slot : reg.slots) {
        for (int i = 0; i < kNumCounters; ++i)
            out.counters[i] +=
                slot->counters[i].load(std::memory_order_relaxed);
        for (int i = 0; i < kNumSeconds; ++i)
            out.seconds[i] +=
                slot->seconds[i].load(std::memory_order_relaxed);
        for (int i = 0; i < kNumMaxGauges; ++i) {
            const int64_t v =
                slot->max_gauges[i].load(std::memory_order_relaxed);
            if (v > out.max_gauges[i])
                out.max_gauges[i] = v;
        }
        for (int i = 0; i < kNumLastGauges; ++i)
            out.last_gauges[i] +=
                slot->last_gauges[i].load(std::memory_order_relaxed);
        for (int i = 0; i < kNumTimers; ++i) {
            Snapshot::TimerStat &t = out.timers[i];
            const Slot::TimerCell &c = slot->timers[i];
            t.count += c.count.load(std::memory_order_relaxed);
            t.sum_seconds +=
                c.sum_seconds.load(std::memory_order_relaxed);
            for (int b = 0; b < kTimerBuckets; ++b)
                t.buckets[b] +=
                    c.buckets[b].load(std::memory_order_relaxed);
        }
    }
    return out;
}

// ------------------------------------------------------ JSON helpers

void
appendInt(std::string &out, const char *key, int64_t v, bool first)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRId64,
                  first ? "" : ", ", key, v);
    out += buf;
}

void
appendDouble(std::string &out, const char *key, double v, bool first)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", first ? "" : ", ",
                  key, v);
    out += buf;
}

int64_t
counterDelta(const Snapshot &now, const Snapshot &prev, Counter c)
{
    return now.counter(c) - prev.counter(c);
}

double
secondsDelta(const Snapshot &now, const Snapshot &prev, Seconds s)
{
    return now.secondsOf(s) - prev.secondsOf(s);
}

int64_t
timerCountDelta(const Snapshot &now, const Snapshot &prev, Timer t)
{
    return now.timer(t).count - prev.timer(t).count;
}

double
timerSecondsDelta(const Snapshot &now, const Snapshot &prev, Timer t)
{
    return now.timer(t).sum_seconds - prev.timer(t).sum_seconds;
}

/** One per-step record: subsystem-grouped deltas + derived rates. */
std::string
renderStepRecord(int64_t step, double wall_seconds, const Snapshot &now,
                 const Snapshot &prev, int pool_threads)
{
    std::string r = "{";
    appendInt(r, "step", step, true);
    appendDouble(r, "wall_s", wall_seconds, false);

    const double gemm_s = timerSecondsDelta(now, prev, Timer::Gemm);
    const int64_t flops = counterDelta(now, prev, Counter::GemmFlops);
    r += ", \"gemm\": {";
    appendInt(r, "calls", counterDelta(now, prev, Counter::GemmCalls),
              true);
    appendInt(r, "batched_items",
              counterDelta(now, prev, Counter::GemmBatchedItems), false);
    appendInt(r, "flops", flops, false);
    appendDouble(r, "seconds", gemm_s, false);
    appendDouble(r, "gflops",
                 gemm_s > 0.0 ? static_cast<double>(flops) / gemm_s / 1e9
                              : 0.0,
                 false);
    r += "}";

    r += ", \"pack_cache\": {";
    appendInt(r, "hits", counterDelta(now, prev, Counter::PackCacheHits),
              true);
    appendInt(r, "rebuilds",
              counterDelta(now, prev, Counter::PackCacheRebuilds), false);
    r += "}";

    r += ", \"arena\": {";
    appendInt(r, "high_water_bytes",
              now.maxGauge(MaxGauge::ArenaHighWaterBytes), true);
    appendInt(r, "reserved_bytes",
              now.lastGauge(LastGauge::ArenaReservedBytes), false);
    r += "}";

    const double busy = secondsDelta(now, prev, Seconds::PoolBusy);
    const double wall = secondsDelta(now, prev, Seconds::PoolWall);
    r += ", \"pool\": {";
    appendInt(r, "jobs", counterDelta(now, prev, Counter::PoolJobs),
              true);
    appendInt(r, "chunks", counterDelta(now, prev, Counter::PoolChunks),
              false);
    appendDouble(r, "busy_s", busy, false);
    appendDouble(r, "wall_s", wall, false);
    appendInt(r, "threads", pool_threads, false);
    appendDouble(r, "utilization",
                 wall > 0.0 && pool_threads > 0
                     ? busy / (wall * pool_threads)
                     : 0.0,
                 false);
    r += "}";

    r += ", \"attn\": {";
    appendInt(r, "fwd_calls", timerCountDelta(now, prev, Timer::AttnFwd),
              true);
    appendInt(r, "bwd_calls", timerCountDelta(now, prev, Timer::AttnBwd),
              false);
    appendDouble(r, "fwd_s", timerSecondsDelta(now, prev, Timer::AttnFwd),
                 false);
    appendDouble(r, "bwd_s", timerSecondsDelta(now, prev, Timer::AttnBwd),
                 false);
    r += "}";

    r += ", \"scheme\": {";
    appendInt(r, "updates",
              counterDelta(now, prev, Counter::SchemeUpdates), true);
    appendInt(r, "publishes",
              counterDelta(now, prev, Counter::SchemePublishes), false);
    appendDouble(r, "work_s",
                 secondsDelta(now, prev, Seconds::SchemeWork), false);
    appendDouble(r, "hidden_s",
                 secondsDelta(now, prev, Seconds::SchemeHidden), false);
    appendDouble(r, "exposed_s",
                 secondsDelta(now, prev, Seconds::SchemeExposed), false);
    appendDouble(r, "worker_busy_s",
                 secondsDelta(now, prev, Seconds::SchemeWorker), false);
    appendInt(r, "solve_cached",
              counterDelta(now, prev, Counter::SchemeSolveCached), false);
    appendInt(r, "skipped",
              counterDelta(now, prev, Counter::SchemeUpdateSkips), false);
    appendDouble(r, "handoff_wait_s",
                 timerSecondsDelta(now, prev, Timer::SchemeWait), false);
    r += "}";

    r += ", \"serve\": {";
    appendInt(r, "requests",
              counterDelta(now, prev, Counter::ServeRequests), true);
    appendInt(r, "prefill_tokens",
              counterDelta(now, prev, Counter::ServePrefillTokens),
              false);
    appendInt(r, "decode_tokens",
              counterDelta(now, prev, Counter::ServeDecodeTokens),
              false);
    appendInt(r, "decode_steps",
              counterDelta(now, prev, Counter::ServeDecodeSteps), false);
    appendDouble(r, "prefill_s",
                 timerSecondsDelta(now, prev, Timer::Prefill), false);
    appendDouble(r, "decode_s",
                 timerSecondsDelta(now, prev, Timer::DecodeStep), false);
    appendInt(r, "kv_page_allocs",
              counterDelta(now, prev, Counter::KvPageAllocs), false);
    appendInt(r, "kv_page_releases",
              counterDelta(now, prev, Counter::KvPageReleases), false);
    appendInt(r, "kv_pages_in_use",
              now.lastGauge(LastGauge::KvPagesInUse), false);
    appendInt(r, "kv_pages_peak", now.maxGauge(MaxGauge::KvPagesPeak),
              false);
    appendInt(r, "rejected",
              counterDelta(now, prev, Counter::ServeRejected), false);
    appendInt(r, "preempted",
              counterDelta(now, prev, Counter::ServePreempted), false);
    appendInt(r, "expired",
              counterDelta(now, prev, Counter::ServeExpired), false);
    appendInt(r, "active_seqs",
              now.lastGauge(LastGauge::ServeActiveSeqs), false);
    r += "}";

    r += ", \"faults\": {";
    appendInt(r, "injected",
              counterDelta(now, prev, Counter::FaultsInjected), true);
    r += "}";

    const int64_t hits = counterDelta(now, prev, Counter::SolveCacheHits);
    const int64_t misses =
        counterDelta(now, prev, Counter::SolveCacheMisses);
    r += ", \"solve_cache\": {";
    appendInt(r, "hits", hits, true);
    appendInt(r, "misses", misses, false);
    appendInt(r, "evictions",
              counterDelta(now, prev, Counter::SolveCacheEvicts), false);
    appendDouble(r, "hit_rate",
                 hits + misses > 0
                     ? static_cast<double>(hits) /
                           static_cast<double>(hits + misses)
                     : 0.0,
                 false);
    r += "}}";
    return r;
}

/** Export names, in Timer order (the span name where a Scope times
 *  exactly one kind of span). */
const char *const kTimerNames[] = {
    "gemm", "attn_fwd", "attn_bwd", "pool_job", "scheme_wait", "step",
    "scheme_apply", "fwd", "bwd", "optim", "scheme_solve", "handoff_wait",
    "prefill", "decode_step"};
static_assert(sizeof(kTimerNames) / sizeof(kTimerNames[0]) == kNumTimers,
              "one export name per timer");

/** Cumulative timer histograms: the per-step records stay lean, the
 *  full log2(ns) distributions land once per document. */
std::string
renderTotals(const Snapshot &snap)
{
    std::string r = "{\"timers\": {";
    for (int i = 0; i < kNumTimers; ++i) {
        const Snapshot::TimerStat &t = snap.timers[i];
        if (i > 0)
            r += ", ";
        r += "\"";
        r += kTimerNames[i];
        r += "\": {";
        appendInt(r, "count", t.count, true);
        appendDouble(r, "sum_s", t.sum_seconds, false);
        r += ", \"log2ns_buckets\": [";
        for (int b = 0; b < kTimerBuckets; ++b) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%" PRId64,
                          b > 0 ? ", " : "", t.buckets[b]);
            r += buf;
        }
        r += "]}";
    }
    r += "}}";
    return r;
}

std::string
renderDocumentLocked(Registry &reg) SNIP_REQUIRES(reg.mu)
{
    std::string doc = "{\"schema\": \"snip-telemetry-v1\", \"meta\": {";
    appendInt(doc, "pid", static_cast<int64_t>(::getpid()), true);
    appendInt(doc, "threads", runtime::defaultThreadCount(), false);
    doc += ", \"simd\": \"";
    detail::appendEscaped(doc, simd::activeBackendName());
    doc += "\"}, \"series\": [";
    for (size_t i = 0; i < reg.series.size(); ++i) {
        if (i > 0)
            doc += ", ";
        doc += reg.series[i];
    }
    doc += "], \"totals\": ";
    doc += renderTotals(foldLocked(reg));
    doc += "}\n";
    return doc;
}

/**
 * Export one sink's document to its configured path (no-op without
 * one). The document is rendered under reg.mu, but the file is
 * written after releasing it: the write seam reenters the registry
 * (the "telemetry.export" fault point counts its injection, which may
 * create this thread's slot — a self-deadlock if the mutex were still
 * held), and a slow disk would stall every thread's first counter
 * bump besides. Writers of one sink are serialized under flush_mu,
 * and a document older than the last published one is dropped.
 */
bool
flushSink(Registry &reg, Sink sink) SNIP_EXCLUDES(reg.mu)
{
    std::string path, doc;
    uint64_t seq = 0;
    {
        util::MutexLock lk(reg.mu);
        const int bit = sink == kTelemetrySink ? detail::kTelemetryBit
                                               : detail::kTraceBit;
        const int mode = detail::g_mode.load(std::memory_order_relaxed);
        if (mode < 0 || (mode & bit) == 0)
            return true; // disabled (or never resolved): nothing to do
        if (sink == kTelemetrySink) {
            reg.boundaries_since_flush = 0;
            path = reg.telemetry_config.json_path;
        } else {
            path = reg.trace_path;
        }
        if (path.empty())
            return true;
        doc = sink == kTelemetrySink ? renderDocumentLocked(reg)
                                     : trace::detail::renderChrome(
                                           reg.slots);
        seq = ++reg.flush_seq[sink];
    }
    util::MutexLock lk(reg.flush_mu);
    if (seq <= reg.flush_published[sink])
        return true; // a newer document was already published
    // Exports are observability, not durable state: a lost export is
    // re-rendered at the next flush, so readers-only atomicity
    // (durable = false) is enough.
    if (SNIP_FAULT_POINT("telemetry.export") ||
        !fsio::writeFileAtomic(path, doc, /*durable=*/false))
        return false;
    reg.flush_published[sink] = seq;
    return true;
}

/** "off" | "on" | "json:<path>" (null or empty = off), the grammar of
 *  both SNIP_TELEMETRY and SNIP_TRACE. */
bool
parseSpec(const char *spec, bool *enabled, std::string *path)
{
    if (spec == nullptr || *spec == '\0' ||
        std::strcmp(spec, "off") == 0) {
        *enabled = false;
        path->clear();
        return true;
    }
    if (std::strcmp(spec, "on") == 0) {
        *enabled = true;
        path->clear();
        return true;
    }
    if (std::strncmp(spec, "json:", 5) == 0 && spec[5] != '\0') {
        *enabled = true;
        *path = spec + 5;
        return true;
    }
    return false;
}

/** Set or clear one bit of the resolved mode word (every writer
 *  holds reg.mu, so the load+store pair cannot lose an update). */
void
setBitLocked([[maybe_unused]] Registry &reg, int bit, bool on)
    SNIP_REQUIRES(reg.mu)
{
    const int mode = detail::g_mode.load(std::memory_order_relaxed);
    detail::g_mode.store(on ? (mode | bit) : (mode & ~bit),
                         std::memory_order_release);
}

void
registerExitFlushLocked(Registry &reg, bool enabled,
                        const std::string &path) SNIP_REQUIRES(reg.mu)
{
    if (!enabled || path.empty() || reg.atexit_registered)
        return;
    // Benches and tests rarely flush explicitly; make sure a
    // normally-exiting process always leaves complete documents.
    reg.atexit_registered = true;
    std::atexit([] {
        (void)flush();
        (void)trace::flush();
    });
}

void
applyTelemetryLocked(Registry &reg, const Config &config)
    SNIP_REQUIRES(reg.mu)
{
    reg.telemetry_config = config;
    reg.series.clear();
    reg.boundaries_since_flush = 0;
    reg.prev = foldLocked(reg);
    reg.prev_time = std::chrono::steady_clock::now();
    reg.have_prev_time = true;
    registerExitFlushLocked(reg, config.enabled, config.json_path);
}

void
applyTraceLocked(Registry &reg, const trace::Config &config)
    SNIP_REQUIRES(reg.mu)
{
    reg.trace_path = config.json_path;
    registerExitFlushLocked(reg, config.enabled, config.json_path);
    // Pin the shared epoch before any scope can observe the trace bit,
    // so no span starts before it.
    (void)trace::nowNs();
}

/** Resolve both sinks from the environment, once; both bits land in
 *  one store. */
void
resolveLocked(Registry &reg) SNIP_REQUIRES(reg.mu)
{
    if (detail::g_mode.load(std::memory_order_acquire) >= 0)
        return; // raced with another resolver/configure()
    const runtime::EnvConfig &env = runtime::envConfig();
    Config tc;
    const char *spec = env.telemetry().cstrOrNull();
    if (!parseSpec(spec, &tc.enabled, &tc.json_path)) {
        warn("unknown SNIP_TELEMETRY value '", spec,
             "' (expected off|on|json:<path>); telemetry disabled");
        tc = Config{};
    }
    trace::Config rc;
    spec = env.trace().cstrOrNull();
    if (!parseSpec(spec, &rc.enabled, &rc.json_path)) {
        warn("unknown SNIP_TRACE value '", spec,
             "' (expected off|on|json:<path>); tracing disabled");
        rc = trace::Config{};
    }
    applyTelemetryLocked(reg, tc);
    applyTraceLocked(reg, rc);
    detail::g_mode.store((tc.enabled ? detail::kTelemetryBit : 0) |
                             (rc.enabled ? detail::kTraceBit : 0),
                         std::memory_order_release);
}

} // namespace

namespace detail {

void
appendEscaped(std::string &out, const char *s)
{
    for (; *s != '\0'; ++s) {
        const char ch = *s;
        switch (ch) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
}

int
resolveMode()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    resolveLocked(reg);
    return g_mode.load(std::memory_order_relaxed);
}

Slot &
slotSlow()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    if (t_slot == nullptr) {
        t_slot = new Slot; // leaked; see Registry::slots
        reg.slots.push_back(t_slot);
        t_slot->tid = static_cast<int>(reg.slots.size());
    }
    return *t_slot;
}

} // namespace detail

Snapshot
snapshot()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    return foldLocked(reg);
}

void
stepBoundary(int64_t step)
{
    if (!enabled())
        return;
    // Resolve outside the registry lock: both may take their own.
    const int pool_threads = runtime::globalThreadPool().numThreads();
    Registry &reg = registry();
    bool due = false;
    {
        util::MutexLock lk(reg.mu);
        const auto now_time = std::chrono::steady_clock::now();
        double wall_seconds = 0.0;
        if (reg.have_prev_time)
            wall_seconds =
                std::chrono::duration<double>(now_time - reg.prev_time)
                    .count();
        const Snapshot now = foldLocked(reg);
        reg.series.push_back(
            renderStepRecord(step, wall_seconds, now, reg.prev,
                             pool_threads));
        reg.prev = now;
        reg.prev_time = now_time;
        reg.have_prev_time = true;
        const int every = reg.telemetry_config.flush_every;
        due = every > 0 && ++reg.boundaries_since_flush >= every;
    }
    if (due)
        (void)flushSink(reg, kTelemetrySink);
}

bool
flush()
{
    return flushSink(registry(), kTelemetrySink);
}

int64_t
stepsRecorded()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    return static_cast<int64_t>(reg.series.size());
}

std::string
summary()
{
    const Snapshot s = snapshot();
    const double gemm_s = s.timer(Timer::Gemm).sum_seconds;
    const int64_t lookups = s.counter(Counter::SolveCacheHits) +
                            s.counter(Counter::SolveCacheMisses);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "gemm %lld calls %.2f GFLOP %s%.1f GFLOP/s; pack cache %lld/%lld "
        "hit; arena hw %lld B; pool %lld jobs; attn %lld+%lld; scheme "
        "%lld updates (%.0f%% hidden); solve cache %lld/%lld hit",
        static_cast<long long>(s.counter(Counter::GemmCalls)),
        static_cast<double>(s.counter(Counter::GemmFlops)) / 1e9,
        gemm_s > 0.0 ? "@ " : "",
        gemm_s > 0.0
            ? static_cast<double>(s.counter(Counter::GemmFlops)) /
                  gemm_s / 1e9
            : 0.0,
        static_cast<long long>(s.counter(Counter::PackCacheHits)),
        static_cast<long long>(s.counter(Counter::PackCacheHits) +
                               s.counter(Counter::PackCacheRebuilds)),
        static_cast<long long>(s.maxGauge(MaxGauge::ArenaHighWaterBytes)),
        static_cast<long long>(s.counter(Counter::PoolJobs)),
        static_cast<long long>(s.timer(Timer::AttnFwd).count),
        static_cast<long long>(s.timer(Timer::AttnBwd).count),
        static_cast<long long>(s.counter(Counter::SchemeUpdates)),
        s.secondsOf(Seconds::SchemeWork) > 0.0
            ? 100.0 * s.secondsOf(Seconds::SchemeHidden) /
                  s.secondsOf(Seconds::SchemeWork)
            : 0.0,
        static_cast<long long>(s.counter(Counter::SolveCacheHits)),
        static_cast<long long>(lookups));
    return buf;
}

void
configure(const Config &config)
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    resolveLocked(reg); // the trace bit keeps its environment value
    applyTelemetryLocked(reg, config);
    setBitLocked(reg, detail::kTelemetryBit, config.enabled);
}

bool
configureFromSpec(const char *spec)
{
    Config config;
    if (!parseSpec(spec, &config.enabled, &config.json_path))
        return false;
    configure(config);
    return true;
}

} // namespace telemetry

namespace trace {

using telemetry::Registry;
using telemetry::registry;

namespace detail {

Ring &
ringSlow()
{
    Slot &slot = telemetry::detail::slot();
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    if (slot.ring == nullptr)
        slot.ring = new Ring; // leaked; see Registry::slots
    return *slot.ring;
}

} // namespace detail

std::string
renderJson()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    return detail::renderChrome(reg.slots);
}

bool
flush()
{
    return telemetry::flushSink(registry(), telemetry::kTraceSink);
}

int64_t
spansRecorded()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    int64_t n = 0;
    for (const telemetry::detail::Slot *slot : reg.slots)
        if (slot->ring != nullptr)
            n += static_cast<int64_t>(std::min(
                slot->ring->head.load(std::memory_order_acquire),
                static_cast<uint64_t>(kRingCapacity)));
    return n;
}

void
configure(const Config &config)
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    telemetry::resolveLocked(reg); // likewise the telemetry bit
    telemetry::applyTraceLocked(reg, config);
    telemetry::setBitLocked(reg, telemetry::detail::kTraceBit,
                            config.enabled);
}

bool
configureFromSpec(const char *spec)
{
    Config config;
    if (!telemetry::parseSpec(spec, &config.enabled, &config.json_path))
        return false;
    configure(config);
    return true;
}

} // namespace trace
} // namespace snip
