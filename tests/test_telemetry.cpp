/**
 * @file
 * Instrumentation registry contracts: spec parsing and the shared mode
 * word of both sinks, fold determinism across thread counts, zero heap
 * allocations on the warmed hot path (this binary overrides the global
 * allocation operators with counting wrappers, like
 * test_workspace.cpp), disabled-mode behavior, and the JSON export.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "telemetry/trace.h"
#include "tensor/gemm.h"
#include "testing_util.h"

namespace {
std::atomic<int64_t> g_allocs{0};
}

// Counting allocation operators (all flavors the library can reach:
// plain, array, and the aligned forms the arena uses).
void *
operator new(size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    // std::stable_sort's temporary buffer (and anything else using
    // the nothrow flavor) must allocate through the counting wrapper
    // too, or its storage would come from the default (possibly
    // sanitizer-intercepted) new yet be freed by our delete.
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void *
operator new(size_t n, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<size_t>(align), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace snip {
namespace {

int64_t
allocDelta(const std::function<void()> &fn)
{
    const int64_t before = g_allocs.load();
    fn();
    return g_allocs.load() - before;
}

/** Fixed instrumented workload: per-shape GEMMs on both pipelines, a
 *  strided batch, and bare parallelFor traffic. Every counter it
 *  bumps is a pure function of these shapes, never of the thread
 *  count. */
void
runWorkload()
{
    std::vector<float> a(128 * 64), b(96 * 64), c(128 * 96, 0.0f);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<float>(i % 13) * 0.25f - 1.0f;
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(i % 7) * 0.5f - 1.5f;
    gemmNT(a.data(), b.data(), c.data(), 128, 96, 64);
    gemmNN(a.data(), b.data(), c.data(), 128, 96,
           64); // b reinterpreted [64,96]
    gemmBatchedNT(a.data(), 16 * 64, b.data(), 0, c.data(), 16 * 6,
                  /*count=*/8, /*m=*/16, /*n=*/6, /*k=*/64,
                  /*group=*/8);
    runtime::parallelFor(0, 1000, 16, [](int64_t, int64_t) {});
}

TEST(Telemetry, ConfigureFromSpecParsing)
{
    InstrumentGuard instrument_guard;
    // SNIP_TELEMETRY and SNIP_TRACE share one grammar and one parser.
    struct Knob
    {
        const char *name;
        bool (*configure)(const char *);
        bool (*enabled)();
    };
    struct Case
    {
        const char *spec;
        bool accepted;
        bool on; // when accepted
    };
    for (const Knob &knob :
         {Knob{"SNIP_TELEMETRY", telemetry::configureFromSpec,
               telemetry::enabled},
          Knob{"SNIP_TRACE", trace::configureFromSpec, trace::enabled}}) {
        for (const Case &c :
             {Case{"off", true, false}, Case{"on", true, true},
              Case{"json:some_path.json", true, true},
              Case{nullptr, true, false}, // unset = off
              Case{"bogus", false, false}, Case{"json:", false, false}}) {
            SCOPED_TRACE(std::string(knob.name) + "=" +
                         (c.spec != nullptr ? c.spec : "<unset>"));
            EXPECT_EQ(knob.configure(c.spec), c.accepted);
            if (c.accepted) {
                EXPECT_EQ(knob.enabled(), c.on);
            }
        }
    }
}

TEST(Telemetry, ConfiguringOneSinkKeepsTheOtherSinksBit)
{
    InstrumentGuard instrument_guard;
    for (const bool other : {false, true}) {
        SCOPED_TRACE(other ? "other sink on" : "other sink off");
        trace::Config rc;
        rc.enabled = other;
        trace::configure(rc);
        for (const bool on : {true, false}) {
            telemetry::Config tc;
            tc.enabled = on;
            telemetry::configure(tc);
            EXPECT_EQ(telemetry::enabled(), on);
            EXPECT_EQ(trace::enabled(), other);
        }
        telemetry::Config tc;
        tc.enabled = other;
        telemetry::configure(tc);
        for (const bool on : {true, false}) {
            rc.enabled = on;
            trace::configure(rc);
            EXPECT_EQ(trace::enabled(), on);
            EXPECT_EQ(telemetry::enabled(), other);
        }
    }
}

TEST(Telemetry, FoldDeterminismAcrossThreadCounts)
{
    InstrumentGuard instrument_guard;
    GlobalPoolGuard pool_guard;
    telemetry::Config cfg;
    cfg.enabled = true;
    telemetry::configure(cfg);

    int64_t ref[telemetry::kNumCounters] = {};
    bool have_ref = false;
    for (int threads : {1, 2, 8}) {
        runtime::setGlobalThreadCount(threads);
        const telemetry::Snapshot before = telemetry::snapshot();
        runWorkload();
        const telemetry::Snapshot after = telemetry::snapshot();
        for (int i = 0; i < telemetry::kNumCounters; ++i) {
            const int64_t delta = after.counters[i] - before.counters[i];
            if (!have_ref)
                ref[i] = delta;
            else
                EXPECT_EQ(delta, ref[i])
                    << "counter " << i << " differs at " << threads
                    << " threads";
        }
        have_ref = true;
    }
    // The workload really did count something.
    EXPECT_GT(ref[static_cast<int>(telemetry::Counter::GemmCalls)], 0);
    EXPECT_GT(ref[static_cast<int>(telemetry::Counter::PoolJobs)], 0);
    EXPECT_GT(ref[static_cast<int>(telemetry::Counter::PoolChunks)], 0);
    EXPECT_EQ(
        ref[static_cast<int>(telemetry::Counter::GemmBatchedItems)], 8);
}

TEST(Telemetry, WarmedHotPathAllocatesNothing)
{
    InstrumentGuard instrument_guard;
    telemetry::Config cfg;
    cfg.enabled = true;
    telemetry::configure(cfg);

    // Warm-up creates this thread's shard; everything after is plain
    // stores into it.
    telemetry::count(telemetry::Counter::GemmCalls);
    telemetry::recordTimer(telemetry::Timer::Gemm, 1e-6);

    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 1000; ++i) {
            telemetry::count(telemetry::Counter::GemmCalls, 3);
            telemetry::count(telemetry::Counter::GemmFlops, 1 << 20);
            telemetry::addSeconds(telemetry::Seconds::PoolBusy, 1e-9);
            telemetry::gaugeMax(telemetry::MaxGauge::ArenaHighWaterBytes,
                                i);
            telemetry::gaugeSet(telemetry::LastGauge::ArenaReservedBytes,
                                i);
            telemetry::recordTimer(telemetry::Timer::PoolJob, 1e-7);
            telemetry::Scope scoped(telemetry::Timer::Gemm, "scoped");
        }
    });
    EXPECT_EQ(allocs, 0);
}

TEST(Telemetry, InstrumentedGemmKeepsZeroAllocContract)
{
    InstrumentGuard instrument_guard;
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    setInstruments(true); // telemetry and trace both on

    // 64x64x64 packs its A strips; 3x48x32 (decode rows) reads A in
    // place. Each shape warms its own arena slab, the telemetry shard
    // and the span ring with the same call that is then measured.
    struct Shape
    {
        int64_t m, n, k;
    };
    for (const Shape s : {Shape{64, 64, 64}, Shape{3, 48, 32}}) {
        SCOPED_TRACE(s.m);
        std::vector<float> a(static_cast<size_t>(s.m * s.k));
        std::vector<float> b(static_cast<size_t>(s.n * s.k));
        std::vector<float> c(static_cast<size_t>(s.m * s.n));
        for (size_t i = 0; i < a.size(); ++i)
            a[i] = static_cast<float>(i % 11) - 5.0f;
        for (size_t i = 0; i < b.size(); ++i)
            b[i] = static_cast<float>(i % 5) - 2.0f;
        auto run = [&] {
            gemmNT(a.data(), b.data(), c.data(), s.m, s.n, s.k);
        };
        run();
        run();
        EXPECT_EQ(allocDelta(run), 0);
    }
}

TEST(Telemetry, DisabledModeIsFree)
{
    InstrumentGuard instrument_guard;
    setInstruments(false);

    const telemetry::Snapshot before = telemetry::snapshot();
    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 1000; ++i) {
            telemetry::count(telemetry::Counter::GemmCalls);
            telemetry::addSeconds(telemetry::Seconds::PoolBusy, 1.0);
            telemetry::gaugeMax(telemetry::MaxGauge::ArenaHighWaterBytes,
                                1 << 30);
            telemetry::recordTimer(telemetry::Timer::Gemm, 1.0);
            telemetry::Scope scoped(telemetry::Timer::Gemm, "off");
        }
    });
    const telemetry::Snapshot after = telemetry::snapshot();
    EXPECT_EQ(allocs, 0);
    for (int i = 0; i < telemetry::kNumCounters; ++i)
        EXPECT_EQ(after.counters[i], before.counters[i]);
    EXPECT_EQ(after.timer(telemetry::Timer::Gemm).count,
              before.timer(telemetry::Timer::Gemm).count);
}

TEST(Telemetry, StepBoundaryAndJsonExport)
{
    InstrumentGuard instrument_guard;
    GlobalPoolGuard pool_guard;
    const std::string path = "test_telemetry_out.json";
    std::remove(path.c_str());

    telemetry::Config cfg;
    cfg.enabled = true;
    cfg.json_path = path;
    cfg.flush_every = 2;
    telemetry::configure(cfg);
    EXPECT_EQ(telemetry::stepsRecorded(), 0);

    runWorkload();
    telemetry::stepBoundary(1);
    runWorkload();
    telemetry::stepBoundary(2); // flush_every=2 rewrites the file here
    EXPECT_EQ(telemetry::stepsRecorded(), 2);
    ASSERT_TRUE(telemetry::flush());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"schema\": \"snip-telemetry-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"step\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"step\": 2"), std::string::npos);
    for (const char *subsystem :
         {"\"gemm\"", "\"pack_cache\"", "\"arena\"", "\"pool\"",
          "\"attn\"", "\"scheme\"", "\"solve_cache\"", "\"timers\""})
        EXPECT_NE(doc.find(subsystem), std::string::npos)
            << "missing " << subsystem;
    std::remove(path.c_str());
}

TEST(Telemetry, SummaryCoversSubsystems)
{
    InstrumentGuard instrument_guard;
    telemetry::Config cfg;
    cfg.enabled = true;
    telemetry::configure(cfg);
    runWorkload();
    const std::string s = telemetry::summary();
    EXPECT_NE(s.find("gemm"), std::string::npos);
    EXPECT_NE(s.find("pool"), std::string::npos);
    EXPECT_NE(s.find("scheme"), std::string::npos);
}

} // namespace
} // namespace snip
