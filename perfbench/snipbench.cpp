/**
 * @file
 * End-to-end benchmark of SNIP training and serving, driven only
 * through the library's public API (Trainer, SnipController,
 * LlamaModel, AdamW, serve::Engine).
 *
 * Workloads (inputs are generated from --seed; same seed, same inputs):
 *
 *  - train_fp4_snip: the paper's setup. tinyllama_sim (22 blocks) with
 *    trainerPreset (batch 4 x seq 32), a 10-step BF16 warm-up, then
 *    adaptive SNIP at a 75% FP4 FLOP target with async scheme updates
 *    every 10 steps and stochastic-rounded FP4 gradients. Stochastic
 *    quantization, training-shape GEMMs, attention fwd/bwd, AdamW and
 *    the scheme search all do real work.
 *  - serve_fp8kv: an offline batch through the continuous-batching
 *    engine: every request queued at t = 0, 8 sequence slots, tiny_test
 *    with max_seq 256, FP8 weights, prompts of 16-96 and outputs of
 *    16-64 tokens, greedy decoding, FP8 KV cache. The KV codec and
 *    decode-shape GEMMs dominate; nothing of training runs.
 *  - serve_fp32kv: the same stream with an FP32 KV cache: the shared
 *    decode path without the codec.
 *
 * Set-up (model construction, warm-up, and for training the first
 * scheme adoption) is built in memory on every run — no checkpoint or
 * solve-cache file is read — and is timed as setup_s. Measurement then
 * repeats identical episodes (training: restore the post-set-up
 * snapshot and run 40 steps; serving: drain the request stream once)
 * until --seconds have passed. Every episode must reproduce the first
 * one bit for bit.
 *
 * --trace=0 prints the end-to-end metrics, measured with every
 * instrument off. --trace=1 alternates untraced episodes with traced
 * ones: the traced episodes drive the same public calls with spans
 * around each call and telemetry::snapshot() deltas attached, print
 * the per-layer budget and metrics, and write the spans as Chrome
 * trace-event JSON (--trace-out). Each run ends with one JSON line:
 * {"correct", "attempted", "failed", "metrics"}.
 *
 * --threads sets the pool size for every workload (the async scheme
 * worker is one more thread). BENCHMARK.json fixes it at 2, so the
 * pool's parallel path (worker dispatch, chunk distribution) runs and
 * runtime.pool_util can move: with 1 thread parallelFor runs inline
 * and utilisation is 1 by construction. On a shared 4-vCPU host, 3
 * pool threads spread two to three times wider than 1 or 2, because
 * every parallelFor waits for all its threads and stalls whenever the
 * host deschedules one vCPU.
 *
 * Usage:
 *   snipbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             --threads=T [--trace-out=PATH] [--layer-metrics=N=U,...]
 *
 * --layer-metrics lists the per-layer metrics (name=unit) a traced run
 * reports; run.py passes BENCHMARK.json's per_layer list, so that file
 * is their one definition. Setting a name the list lacks is fatal.
 */
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "budget.h"
#include "core/controller.h"
#include "core/flops_model.h"
#include "nn/model.h"
#include "optim/lr_schedule.h"
#include "runtime/env_config.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "telemetry/telemetry.h"
#include "train/presets.h"
#include "train/trainer.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace snip {
namespace {

using perfbench::BudgetNode;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;
using telemetry::Counter;
using telemetry::Seconds;
using telemetry::Timer;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- report

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Declare the per-layer list, all zero, in the order given. A
     *  layer the workload does not exercise keeps its 0. */
    void declare(const std::vector<std::pair<std::string, std::string>> &list)
    {
        for (const auto &m : list)
            add(m.first, 0.0, m.second);
    }

    /** Overwrite a metric declared by declare(). */
    void set(const std::string &name, double value)
    {
        for (Metric &m : metrics_)
            if (m.name == name) {
                m.value = value;
                return;
            }
        fatal("perfbench: undeclared metric ", name);
    }

    /** Record an output check; a failing one makes the run incorrect. */
    void check(bool ok, const std::string &what)
    {
        std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAIL");
        if (!ok) {
            std::fprintf(stderr, "perfbench: output check failed: %s\n",
                         what.c_str());
            correct_ = false;
        }
    }

    void countWork(int64_t attempted, int64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

    std::string json() const
    {
        std::string out = strformat(
            "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
            "\"metrics\": {",
            correct_ ? "true" : "false",
            static_cast<long long>(attempted_),
            static_cast<long long>(failed_));
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            const double v = std::isfinite(m.value) ? m.value : 0.0;
            out += strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i ? ", " : "", m.name.c_str(), v,
                             m.unit.c_str());
        }
        return out + "}}";
    }

  private:
    std::vector<Metric> metrics_;
    bool correct_ = true;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/** One human-readable result line: name, value, unit, provenance. */
void
printLine(const char *name, double value, const char *unit,
          const std::string &note)
{
    std::printf("  %-18s %14.4f %-6s %s\n", name, value, unit, note.c_str());
}

std::string
sampleNote(const std::vector<double> &samples, double value)
{
    return strformat("(n=%zu, %lld above)", samples.size(),
                     static_cast<long long>(
                         perfbench::countAbove(samples, value)));
}

std::string
joinValues(const std::vector<double> &values)
{
    std::string out;
    for (double v : values)
        out += strformat(" %.1f", v);
    return out;
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// --------------------------------------------------------- fingerprint

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
fingerprint(int threads)
{
    long l3 = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
    l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef __clang__
    const std::string compiler = std::string("clang ") + __clang_version__;
#else
    const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
    return strformat(
        "{\"threads\": %d, \"async_workers\": 1, \"nproc\": %ld, "
        "\"cpu\": %s, \"l3_bytes\": %ld, \"compiler\": %s, "
        "\"build_type\": %s, \"env\": %s}",
        threads, sysconf(_SC_NPROCESSORS_ONLN),
        perfbench::jsonQuote(cpuModel()).c_str(), l3,
        perfbench::jsonQuote(compiler).c_str(),
        perfbench::jsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
        perfbench::jsonQuote(runtime::envConfig().dump()).c_str());
}

// ------------------------------------------------------ shared driver

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    int threads = 1;
    std::string trace_out;
    /** Per-layer metrics (name, unit) a traced run reports, in order. */
    std::vector<std::pair<std::string, std::string>> layer_metrics;
};

/** Telemetry delta b - a of a timer's total seconds. */
double
timerDelta(const telemetry::Snapshot &a, const telemetry::Snapshot &b,
           Timer t)
{
    return b.timer(t).sum_seconds - a.timer(t).sum_seconds;
}

int64_t
counterDelta(const telemetry::Snapshot &a, const telemetry::Snapshot &b,
             Counter c)
{
    return b.counter(c) - a.counter(c);
}

double
secondsDelta(const telemetry::Snapshot &a, const telemetry::Snapshot &b,
             Seconds s)
{
    return b.secondsOf(s) - a.secondsOf(s);
}

/** Tensor- and runtime-layer metrics over one traced episode. */
void
setKernelLayers(Report &r, const telemetry::Snapshot &a,
                const telemetry::Snapshot &b, int threads)
{
    const double gemm_s = timerDelta(a, b, Timer::Gemm);
    const double gflop =
        static_cast<double>(counterDelta(a, b, Counter::GemmFlops)) * 1e-9;
    const int64_t hits = counterDelta(a, b, Counter::PackCacheHits);
    const int64_t rebuilds = counterDelta(a, b, Counter::PackCacheRebuilds);
    const double wall = secondsDelta(a, b, Seconds::PoolWall);
    const double busy = secondsDelta(a, b, Seconds::PoolBusy);
    r.set("tensor.gemm_s", gemm_s);
    r.set("tensor.gemm_calls",
          static_cast<double>(counterDelta(a, b, Counter::GemmCalls)));
    r.set("tensor.gemm_gflop", gflop);
    r.set("tensor.gemm_gflops", gemm_s > 0.0 ? gflop / gemm_s : 0.0);
    r.set("tensor.pack_hit_ratio",
          hits + rebuilds > 0
              ? static_cast<double>(hits) / static_cast<double>(hits + rebuilds)
              : 0.0);
    r.set("runtime.pool_jobs",
          static_cast<double>(counterDelta(a, b, Counter::PoolJobs)));
    r.set("runtime.pool_wall_s", wall);
    r.set("runtime.pool_busy_s", busy);
    r.set("runtime.pool_util", wall > 0.0 ? busy / (wall * threads) : 0.0);
    r.set("runtime.arena_peak_bytes",
          static_cast<double>(
              b.maxGauge(telemetry::MaxGauge::ArenaHighWaterBytes)));
}

void
setTelemetry(bool on)
{
    telemetry::Config tc;
    tc.enabled = on;
    telemetry::configure(tc);
}

/**
 * Set up @p reps times (each from scratch, keeping the last) and
 * return the median set-up seconds.
 */
template <class State>
double
timedSetup(int reps, std::unique_ptr<State> &state,
           const std::function<std::unique_ptr<State>()> &make)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        state.reset();
        const Clock::time_point t0 = Clock::now();
        state = make();
        times.push_back(secondsSince(t0));
    }
    return perfbench::median(times);
}

constexpr int kSetupReps = 5;

/** Index of the sample closest to the median: the traced episode whose
 *  budget a traced run reports. */
size_t
nearestToMedian(const std::vector<double> &values)
{
    const double med = perfbench::median(values);
    size_t best = 0;
    for (size_t i = 1; i < values.size(); ++i)
        if (std::fabs(values[i] - med) < std::fabs(values[best] - med))
            best = i;
    return best;
}

/** Tracing cost: median traced over median untraced wall, minus 1. */
double
overheadShare(const std::vector<double> &traced,
              const std::vector<double> &plain)
{
    return perfbench::median(traced) / perfbench::median(plain) - 1.0;
}

// ----------------------------------------------------------- training

constexpr int64_t kWarmupSteps = 10;   ///< BF16 steps before SNIP starts
constexpr int64_t kUpdateInterval = 10; ///< steps between scheme updates
constexpr int64_t kEpisodeSteps = 40;   ///< four update intervals
constexpr double kFp4Target = 0.75;
/** Steps whose timings the tail percentile needs: p95 keeps >= 10
 *  samples above it. */
constexpr int64_t kMinTimedSteps = 200;

SnipController::Config
controllerConfig()
{
    SnipController::Config c;
    c.target_fp4_fraction = kFp4Target;
    c.update_interval = kUpdateInterval;
    c.async = true; // default apply_delay: adopted 8 steps after snapshot
    return c;
}

/** Post-set-up training state every episode restarts from. */
struct TrainState
{
    std::unique_ptr<Trainer> trainer;
    TrainerSnapshot start;
    SnipController::PersistState controller;
};

/**
 * Build the trainer, run the BF16 warm-up, then run SNIP for one
 * update interval so the first adaptive scheme is adopted; snapshot
 * trainer and controller there. Episodes start at an update boundary
 * with an FP4 scheme in place.
 */
std::unique_ptr<TrainState>
setupTrain(uint64_t seed)
{
    auto s = std::make_unique<TrainState>();
    TrainerConfig cfg = trainerPreset(tinyllamaSim(), seed);
    cfg.corpus.seed = seed ^ 0xC0A95EEDull;
    s->trainer = std::make_unique<Trainer>(cfg);
    s->trainer->train(kWarmupSteps);
    SnipController controller(controllerConfig());
    s->trainer->train(kUpdateInterval, &controller);
    s->controller = controller.exportState();
    s->start = s->trainer->snapshot();
    return s;
}

struct TrainEpisode
{
    std::vector<double> losses;
    std::vector<double> step_s;
    std::vector<double> fp4; ///< FP4 FLOP fraction of each step's scheme
    double wall_s = 0.0;     ///< sum of step_s
};

/** Untraced episode: Trainer::train, timed per step from outside. */
TrainEpisode
runTrainEpisode(TrainState &s)
{
    Trainer &trainer = *s.trainer;
    trainer.restore(s.start);
    SnipController controller(controllerConfig());
    controller.importState(s.controller);
    const FlopsModel flops(trainer.model().registry());

    TrainEpisode ep;
    ep.step_s.reserve(kEpisodeSteps);
    ep.fp4.reserve(kEpisodeSteps);
    Clock::time_point last = Clock::now();
    ep.losses = trainer.train(kEpisodeSteps, &controller,
                              [&](int64_t, double) {
                                  ep.step_s.push_back(secondsSince(last));
                                  ep.fp4.push_back(flops.fp4Fraction(
                                      trainer.model().currentScheme()));
                                  last = Clock::now();
                              });
    for (double t : ep.step_s)
        ep.wall_s += t;
    return ep;
}

/** Layer readings of one traced training episode. */
struct TrainTraced
{
    TrainEpisode ep;
    int root = -1; ///< "train.episode" span
    double fwd_gemm_s = 0.0, bwd_gemm_s = 0.0, attn_s = 0.0;
    double wait_s = 0.0, worker_s = 0.0;
    double ilp_s = 0.0;
    int64_t ilp_nodes = 0;
    OverheadTotals totals;
    telemetry::Snapshot t0, t1;
};

/**
 * Traced episode: the public calls Trainer::trainStep makes, in its
 * order, each under a span. GEMM and attention timer deltas are
 * attached to the fwd/bwd spans; ILP cost is read from lastOverhead()
 * after every call that adopted a scheme.
 */
TrainTraced
runTrainEpisodeTraced(TrainState &s, SpanRecorder &rec)
{
    Trainer &trainer = *s.trainer;
    LlamaModel &model = trainer.model();
    AdamW &opt = trainer.optimizer();
    const TrainerConfig &cfg = trainer.config();
    const LrSchedule lr(cfg.lr_kind, cfg.adamw.lr, cfg.lr_total_steps,
                        cfg.lr_warmup_steps);
    const FlopsModel flops(model.registry());

    TrainTraced tt;
    tt.root = rec.begin("train.episode");
    {
        ScopedSpan span(rec, "trainer.restore");
        trainer.restore(s.start);
    }
    tt.t0 = telemetry::snapshot();
    auto controller = [&] {
        ScopedSpan span(rec, "core.controller_init");
        auto c = std::make_unique<SnipController>(controllerConfig());
        c->importState(s.controller);
        return c;
    }();
    // One span per public call. Telemetry is folded between the calls,
    // so its cost lands in the step's unattributed row, not in a layer.
    auto call = [&](const char *name, int64_t step,
                    const std::function<void()> &fn) {
        const int idx = rec.begin(name, step);
        fn();
        rec.end(idx);
        return idx;
    };
    auto attachKernels = [&](int span, const telemetry::Snapshot &a,
                             const telemetry::Snapshot &b) {
        const double gemm_s = timerDelta(a, b, Timer::Gemm);
        const double attn_s = timerDelta(a, b, Timer::AttnFwd) +
                              timerDelta(a, b, Timer::AttnBwd);
        rec.arg(span, "gemm_s", gemm_s);
        rec.arg(span, "gemm_calls",
                static_cast<double>(counterDelta(a, b, Counter::GemmCalls)));
        rec.arg(span, "attn_s", attn_s);
        tt.attn_s += attn_s;
        return gemm_s;
    };
    for (int64_t i = 0; i < kEpisodeSteps; ++i) {
        const int64_t step = s.start.step + i;
        const int step_span = rec.begin("train.step", step);
        Batch batch;
        call("data.batch", step, [&] { batch = trainer.nextBatch(); });
        const telemetry::Snapshot u0 = telemetry::snapshot();
        bool adopted = false;
        const int update = call("core.update", step, [&] {
            adopted = controller->maybeUpdate(model, &opt, batch, step,
                                              &trainer.pool());
        });
        const telemetry::Snapshot u1 = telemetry::snapshot();
        call("nn.zero_grad", step, [&] { model.zeroGrad(); });
        LossResult loss;
        const telemetry::Snapshot f0 = telemetry::snapshot();
        const int fwd = call("nn.fwd", step, [&] {
            loss = model.forwardLoss(batch.tokens, batch.targets, batch.batch,
                                     batch.seq);
        });
        const telemetry::Snapshot f1 = telemetry::snapshot();
        const int bwd =
            call("nn.bwd", step, [&] { model.backward(loss.dlogits); });
        const telemetry::Snapshot f2 = telemetry::snapshot();
        call("optim.step", step, [&] {
            opt.setLr(lr.at(step));
            opt.step();
        });
        rec.end(step_span);

        const double wait_s = timerDelta(u0, u1, Timer::SchemeWait);
        rec.arg(update, "wait_s", wait_s);
        tt.wait_s += wait_s;
        if (adopted) {
            const UpdateOverhead &ov = controller->lastOverhead();
            rec.arg(update, "ilp_s", ov.solve_seconds);
            rec.arg(update, "ilp_nodes", static_cast<double>(ov.ilp_nodes));
            tt.ilp_s += ov.solve_seconds;
            tt.ilp_nodes += ov.ilp_nodes;
        }
        tt.fwd_gemm_s += attachKernels(fwd, f0, f1);
        tt.bwd_gemm_s += attachKernels(bwd, f1, f2);
        tt.ep.losses.push_back(loss.loss);
        tt.ep.step_s.push_back(rec.span(step_span).seconds());
        tt.ep.fp4.push_back(flops.fp4Fraction(model.currentScheme()));
    }
    tt.totals = controller->totals();
    {
        ScopedSpan span(rec, "core.controller_exit");
        controller.reset(); // joins the scheme worker
    }
    tt.t1 = telemetry::snapshot();
    tt.worker_s = secondsDelta(tt.t0, tt.t1, Seconds::SchemeWorker);
    rec.end(tt.root);
    for (double t : tt.ep.step_s)
        tt.ep.wall_s += t;
    return tt;
}

/** Budget tree of one traced training episode, children summing to
 *  their parents. */
BudgetNode
trainBudget(const SpanRecorder &rec, const TrainTraced &tt)
{
    BudgetNode tree = perfbench::budgetFromSpans(rec.spans(), tt.root);
    auto split = [&](const char *row, const char *part, double part_s,
                     const char *rest) {
        BudgetNode *node = perfbench::findRow(tree, row);
        if (node == nullptr)
            fatal("perfbench: missing budget row ", row);
        BudgetNode child;
        child.name = part;
        child.seconds = part_s;
        node->children.push_back(child);
        node->remainder = rest;
    };
    split("nn.fwd", "tensor.gemm", tt.fwd_gemm_s, "nn.non_gemm");
    split("nn.bwd", "tensor.gemm", tt.bwd_gemm_s, "nn.non_gemm");
    split("core.update", "async.wait", tt.wait_s, "core.inline");
    perfbench::closeBudget(tree);
    return tree;
}

int64_t
countNonFinite(const std::vector<double> &v)
{
    return std::count_if(v.begin(), v.end(),
                         [](double x) { return !std::isfinite(x); });
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double
mean(const std::vector<double> &v)
{
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

double
lossFinal(const std::vector<double> &losses)
{
    const size_t k = std::min<size_t>(10, losses.size());
    return mean(std::vector<double>(losses.end() - k, losses.end()));
}

/** Output checks shared by timed and traced training runs; returns
 *  the achieved FP4 FLOP share over every step. */
double
checkTrainEpisodes(Report &r, const std::vector<TrainEpisode> &eps,
                   const char *what)
{
    int64_t steps = 0, bad = 0;
    bool repeat = true;
    std::vector<double> fp4;
    for (const TrainEpisode &ep : eps) {
        bad += countNonFinite(ep.losses);
        steps += static_cast<int64_t>(ep.losses.size());
        repeat = repeat && sameBits(ep.losses, eps.front().losses);
        fp4.insert(fp4.end(), ep.fp4.begin(), ep.fp4.end());
    }
    r.countWork(steps, bad);
    r.check(bad == 0, strformat("%s: every loss finite (%lld/%lld bad)", what,
                                static_cast<long long>(bad),
                                static_cast<long long>(steps)));
    r.check(repeat, strformat("%s: %zu episodes bit-identical", what,
                              eps.size()));
    const double share = mean(fp4);
    r.check(share >= kFp4Target,
            strformat("%s: fp4_flop_share %.4f >= %.2f", what, share,
                      kFp4Target));
    return share;
}

double
episodeTokS(const TrainEpisode &ep, const TrainerConfig &cfg)
{
    const double tokens = static_cast<double>(
        ep.step_s.size() * cfg.batch_size * cfg.corpus.seq_len);
    return tokens / ep.wall_s;
}

void
trainTimed(const Options &o, Report &r)
{
    std::unique_ptr<TrainState> s;
    const double setup_s = timedSetup<TrainState>(
        kSetupReps, s, [&] { return setupTrain(o.seed); });
    const TrainerConfig &cfg = s->trainer->config();

    std::vector<TrainEpisode> eps;
    std::vector<double> steps_s, tok_s;
    const Clock::time_point t0 = Clock::now();
    bool floor_ended = false; // the step floor, not --seconds, ended it
    while (secondsSince(t0) < o.seconds ||
           static_cast<int64_t>(steps_s.size()) < kMinTimedSteps) {
        floor_ended = secondsSince(t0) >= o.seconds;
        eps.push_back(runTrainEpisode(*s));
        const TrainEpisode &ep = eps.back();
        for (double t : ep.step_s)
            steps_s.push_back(t * 1e3);
        tok_s.push_back(episodeTokS(ep, cfg));
    }
    const double measured_s = secondsSince(t0);
    const double fp4 = checkTrainEpisodes(r, eps, "train");

    const double tok = perfbench::median(tok_s);
    const double p50 = perfbench::quantile(steps_s, 0.50);
    const double p95 = perfbench::quantile(steps_s, 0.95);
    const double rss = peakRssMiB();

    std::printf("end-to-end (train_fp4_snip, %zu episodes of %lld steps, "
                "%.1f s measured):\n",
                eps.size(), static_cast<long long>(kEpisodeSteps),
                measured_s);
    if (floor_ended)
        std::printf("  note: ran past --seconds=%g to reach the %lld-step "
                    "floor\n",
                    o.seconds, static_cast<long long>(kMinTimedSteps));
    printLine("train_tok_s", tok, "tok/s", "(median over episodes)");
    std::printf("  episode tok/s:%s\n", joinValues(tok_s).c_str());
    printLine("step_ms_p50", p50, "ms", sampleNote(steps_s, p50));
    printLine("step_ms_p95", p95, "ms", sampleNote(steps_s, p95));
    printLine("loss_final", lossFinal(eps.front().losses), "nats",
              "(mean of the last 10 steps)");
    printLine("fp4_flop_share", fp4, "ratio", "(mean over steps)");
    printLine("failed_share",
              static_cast<double>(r.failed()) /
                  static_cast<double>(r.attempted()),
              "ratio", "(non-finite steps / steps)");
    printLine("setup_s", setup_s, "s",
              strformat("(median of %d set-ups)", kSetupReps));
    printLine("peak_rss_mb", rss, "MiB", "");

    r.add("tok_s", tok, "tok/s");
    r.add("latency_p50_ms", p50, "ms");
    r.add("latency_tail_ms", p95, "ms");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", rss, "MiB");
}

void
trainTraced(const Options &o, Report &r, SpanRecorder &rec)
{
    std::unique_ptr<TrainState> s = setupTrain(o.seed);
    std::vector<TrainEpisode> plain;
    std::vector<TrainTraced> traced;
    const Clock::time_point t0 = Clock::now();
    while (plain.empty() || traced.empty() || secondsSince(t0) < o.seconds) {
        if (plain.size() <= traced.size()) {
            setTelemetry(false);
            plain.push_back(runTrainEpisode(*s));
        } else {
            setTelemetry(true);
            traced.push_back(runTrainEpisodeTraced(*s, rec));
        }
    }
    setTelemetry(false);

    // Every traced episode must reproduce Trainer::train bit for bit:
    // the decomposition runs the same program.
    std::vector<TrainEpisode> all = plain;
    std::vector<double> plain_wall, traced_wall;
    for (const TrainEpisode &ep : plain)
        plain_wall.push_back(ep.wall_s);
    for (const TrainTraced &tt : traced) {
        all.push_back(tt.ep);
        traced_wall.push_back(tt.ep.wall_s);
    }
    checkTrainEpisodes(r, all, "train, traced and Trainer::train");
    const size_t mid = nearestToMedian(traced_wall);
    const TrainTraced &tt = traced[mid];

    BudgetNode tree = trainBudget(rec, tt);
    std::printf("budget (train_fp4_snip, traced episode %zu of %zu):\n%s",
                mid + 1, traced.size(), perfbench::renderBudget(tree).c_str());

    auto row = [&](const char *name) {
        const BudgetNode *n = perfbench::findRow(tree, name);
        return n != nullptr ? n->seconds : 0.0;
    };
    const double fwd = row("nn.fwd");
    const double bwd = row("nn.zero_grad") + row("nn.bwd");
    r.set("data.batch_s", row("data.batch"));
    r.set("core.update_s", row("core.update"));
    r.set("core.updates", tt.totals.updates);
    r.set("core.skips", tt.totals.skipped);
    r.set("ilp.solve_s", tt.ilp_s);
    r.set("ilp.nodes", static_cast<double>(tt.ilp_nodes));
    r.set("async.worker_s", tt.worker_s);
    r.set("async.wait_s", tt.wait_s);
    r.set("nn.fwd_s", fwd);
    r.set("nn.bwd_s", bwd);
    r.set("nn.non_gemm_s", fwd + bwd - tt.fwd_gemm_s - tt.bwd_gemm_s);
    r.set("nn.attn_s", tt.attn_s);
    r.set("optim.step_s", row("optim.step"));
    setKernelLayers(r, tt.t0, tt.t1, o.threads);
    r.set("train.loss_final", lossFinal(tt.ep.losses));
    r.set("train.fp4_flop_share", mean(tt.ep.fp4));
    r.set("unattributed_s", perfbench::sumRows(tree, "unattributed"));
    r.set("trace.overhead_share", overheadShare(traced_wall, plain_wall));
}

// ------------------------------------------------------------ serving

constexpr int64_t kServeSlots = 8;
constexpr int64_t kServeRequests = 500;      ///< per episode
constexpr int64_t kServeWarmupRequests = 32; ///< part of set-up
constexpr int64_t kInvarianceStride = 25;    ///< re-run every 25th request

ModelConfig
serveModel()
{
    ModelConfig m = tinyTestModel();
    m.max_seq = 256;
    return m;
}

serve::SyntheticStreamConfig
streamConfig(uint64_t seed, int64_t n, int64_t vocab)
{
    serve::SyntheticStreamConfig sc;
    sc.n_requests = n;
    sc.seed = seed;
    sc.vocab = vocab;
    sc.min_prompt = 16;
    sc.max_prompt = 96;
    sc.min_new = 16;
    sc.max_new = 64;
    sc.arrival_rate = 0.0; // offline batch: everything queued at t = 0
    return sc;
}

struct ServeState
{
    std::unique_ptr<LlamaModel> model;
    std::unique_ptr<serve::Engine> engine;
    serve::SyntheticStreamConfig stream;
    /** Requested token count of every request of the stream, by id. */
    std::map<int64_t, int64_t> want;
};

std::unique_ptr<ServeState>
setupServe(uint64_t seed, serve::KvCacheMode mode)
{
    auto s = std::make_unique<ServeState>();
    s->model = std::make_unique<LlamaModel>(serveModel(), seed);
    s->model->setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(s->model->registry().numLinear()),
        Precision::FP8));
    serve::EngineConfig ec;
    ec.max_concurrency = kServeSlots;
    ec.kv_mode = mode;
    s->engine = std::make_unique<serve::Engine>(*s->model, ec);
    const int64_t vocab = s->model->config().vocab_size;
    s->stream = streamConfig(seed ^ 0x5E7E5EEDull, kServeRequests, vocab);
    auto queue = serve::RequestQueue::synthetic(s->stream);
    while (!queue.empty()) {
        const serve::ServeRequest req = queue.pop();
        s->want[req.id] = req.max_new_tokens;
    }
    auto warm = serve::RequestQueue::synthetic(
        streamConfig(seed ^ 0x3A3Aull, kServeWarmupRequests, vocab));
    s->engine->run(warm);
    return s;
}

struct ServeEpisode
{
    std::vector<serve::RequestResult> results;
    serve::ServeStats stats;
    double run_s = 0.0;
    int64_t tokens = 0;
    /** Requests not ending Ok with their requested token count. */
    int64_t failed = 0;
    /** CRC of (id, count, tokens) over all results in id order. */
    uint32_t crc = 0;
};

void
finishServeEpisode(const ServeState &s, ServeEpisode &ep)
{
    int64_t ok = 0;
    for (const serve::RequestResult &res : ep.results) {
        const int64_t n = static_cast<int64_t>(res.tokens.size());
        auto it = s.want.find(res.id);
        if (res.status == serve::RequestStatus::Ok && it != s.want.end() &&
            n == it->second)
            ++ok;
        ep.tokens += n;
        const int64_t head[2] = {res.id, n};
        ep.crc = crc32(head, sizeof(head), ep.crc);
        ep.crc = crc32(res.tokens.data(), res.tokens.size() * sizeof(int32_t),
                       ep.crc);
    }
    ep.failed = static_cast<int64_t>(s.want.size()) - ok;
}

ServeEpisode
runServeEpisode(ServeState &s)
{
    ServeEpisode ep;
    auto queue = serve::RequestQueue::synthetic(s.stream);
    const Clock::time_point t0 = Clock::now();
    ep.results = s.engine->run(queue);
    ep.run_s = secondsSince(t0);
    ep.stats = s.engine->stats();
    finishServeEpisode(s, ep);
    return ep;
}

struct ServeTraced
{
    ServeEpisode ep;
    int root = -1; ///< "serve.episode" span
    int run = -1;  ///< "serve.run" span
    telemetry::Snapshot t0, t1;
};

/** Request lifetimes, first to last token, on the fewest lanes that
 *  keep each lane's spans disjoint. */
void
addRequestSpans(SpanRecorder &rec, const ServeTraced &st)
{
    const std::vector<serve::RequestResult> &results = st.ep.results;
    const int64_t base = rec.span(st.run).start_ns;
    std::vector<int64_t> first(results.size()), last(results.size());
    std::vector<std::pair<int64_t, size_t>> order;
    for (size_t i = 0; i < results.size(); ++i) {
        double t = results[i].ttft_s;
        first[i] = base + static_cast<int64_t>(t * 1e9);
        for (double gap : results[i].itl_s)
            t += gap;
        last[i] = base + static_cast<int64_t>(t * 1e9);
        order.emplace_back(first[i], i);
    }
    std::sort(order.begin(), order.end());
    std::vector<int64_t> lane_end;
    for (const auto &entry : order) {
        const size_t i = entry.second;
        size_t lane = 0;
        while (lane < lane_end.size() && lane_end[lane] > first[i])
            ++lane;
        if (lane == lane_end.size())
            lane_end.push_back(0);
        lane_end[lane] = last[i];
        const int span =
            rec.add("request", first[i], last[i], st.run, results[i].id,
                    perfbench::kMainTrack + 1 + static_cast<int64_t>(lane));
        rec.arg(span, "tokens", static_cast<double>(results[i].tokens.size()));
        rec.arg(span, "ttft_ms", results[i].ttft_s * 1e3);
    }
}

ServeTraced
runServeEpisodeTraced(ServeState &s, SpanRecorder &rec)
{
    ServeTraced st;
    st.root = rec.begin("serve.episode");
    serve::RequestQueue queue;
    {
        ScopedSpan span(rec, "serve.make_queue");
        queue = serve::RequestQueue::synthetic(s.stream);
    }
    st.t0 = telemetry::snapshot();
    st.run = rec.begin("serve.run");
    st.ep.results = s.engine->run(queue);
    rec.end(st.run);
    st.t1 = telemetry::snapshot();
    rec.end(st.root);
    st.ep.run_s = rec.span(st.run).seconds();
    st.ep.stats = s.engine->stats();
    finishServeEpisode(s, st.ep);
    addRequestSpans(rec, st);
    return st;
}

/** Output checks over every episode of a run: requests Ok with their
 *  token counts, and one token stream across all episodes. */
void
checkServeEpisodes(Report &r, const ServeState &s,
                   const std::vector<ServeEpisode> &eps, const char *what)
{
    int64_t bad = 0;
    bool repeat = true;
    for (const ServeEpisode &ep : eps) {
        bad += ep.failed;
        repeat = repeat && ep.crc == eps.front().crc &&
                 ep.tokens == eps.front().tokens;
    }
    const int64_t sent =
        static_cast<int64_t>(eps.size() * s.want.size());
    r.countWork(sent, bad);
    r.check(bad == 0, strformat("%s: every request Ok with its token count "
                                "(%lld/%lld failed)",
                                what, static_cast<long long>(bad),
                                static_cast<long long>(sent)));
    r.check(repeat, strformat("%s: token CRC %08x in all %zu episodes", what,
                              eps.front().crc, eps.size()));
}

/** Batching invariance: a sample of requests re-run one at a time
 *  yields exactly the tokens the batched run produced. */
void
checkBatchingInvariance(Report &r, ServeState &s, const ServeEpisode &ep,
                        serve::KvCacheMode mode)
{
    serve::RequestQueue sample;
    auto queue = serve::RequestQueue::synthetic(s.stream);
    while (!queue.empty()) {
        serve::ServeRequest req = queue.pop();
        if (req.id % kInvarianceStride == 0)
            sample.push(std::move(req));
    }
    serve::EngineConfig ec;
    ec.max_concurrency = 1;
    ec.kv_mode = mode;
    serve::Engine single(*s.model, ec);
    const std::vector<serve::RequestResult> alone = single.run(sample);
    std::map<int64_t, const std::vector<int32_t> *> batched;
    for (const serve::RequestResult &res : ep.results)
        batched[res.id] = &res.tokens;
    size_t same = 0;
    for (const serve::RequestResult &res : alone) {
        auto it = batched.find(res.id);
        if (it != batched.end() && *it->second == res.tokens)
            ++same;
    }
    r.check(!alone.empty() && same == alone.size(),
            strformat("serve: %zu/%zu sampled requests identical at "
                      "max_concurrency=1",
                      same, alone.size()));
}

void
serveTimed(const Options &o, Report &r, serve::KvCacheMode mode)
{
    std::unique_ptr<ServeState> s;
    const double setup_s = timedSetup<ServeState>(
        kSetupReps, s, [&] { return setupServe(o.seed, mode); });

    // ITL percentiles are taken per episode (each has ~20k gaps, so
    // p99 keeps ~200 above it) and reported as medians over episodes:
    // robust to a burst of host noise, and memory stays flat.
    std::vector<ServeEpisode> eps;
    std::vector<double> tok_s, p50s, p99s, itl_ms;
    int64_t min_above = -1;
    const Clock::time_point t0 = Clock::now();
    while (eps.empty() || secondsSince(t0) < o.seconds) {
        eps.push_back(runServeEpisode(*s));
        ServeEpisode &ep = eps.back();
        itl_ms.clear();
        for (const serve::RequestResult &res : ep.results)
            for (double gap : res.itl_s)
                itl_ms.push_back(gap * 1e3);
        p50s.push_back(perfbench::quantile(itl_ms, 0.50));
        p99s.push_back(perfbench::quantile(itl_ms, 0.99));
        const int64_t above = perfbench::countAbove(itl_ms, p99s.back());
        min_above = min_above < 0 ? above : std::min(min_above, above);
        tok_s.push_back(static_cast<double>(ep.tokens) / ep.run_s);
        // Only the first episode's tokens are kept (for the batching
        // check); later ones are summarized by failed count and CRC.
        if (eps.size() > 1)
            std::vector<serve::RequestResult>().swap(ep.results);
    }
    checkServeEpisodes(r, *s, eps, "serve");
    if (mode == serve::KvCacheMode::Fp32)
        checkBatchingInvariance(r, *s, eps.front(), mode);

    const double tok = perfbench::median(tok_s);
    const double p50 = perfbench::median(p50s);
    const double p99 = perfbench::median(p99s);
    const double rss = peakRssMiB();
    std::printf("end-to-end (%s, %zu episodes of %lld requests):\n",
                o.workload.c_str(), eps.size(),
                static_cast<long long>(kServeRequests));
    printLine("decode_tok_s", tok, "tok/s", "(median over episodes)");
    std::printf("  episode tok/s:%s\n", joinValues(tok_s).c_str());
    const std::string per_episode = strformat(
        "(median over episodes; n=%zu gaps each, >= %lld above p99)",
        itl_ms.size(), static_cast<long long>(min_above));
    printLine("itl_ms_p50", p50, "ms", per_episode);
    printLine("itl_ms_p99", p99, "ms", per_episode);
    printLine("failed_share",
              static_cast<double>(r.failed()) /
                  static_cast<double>(r.attempted()),
              "ratio", "(requests not Ok / requests sent)");
    printLine("setup_s", setup_s, "s",
              strformat("(median of %d set-ups)", kSetupReps));
    printLine("peak_rss_mb", rss, "MiB", "");

    r.add("tok_s", tok, "tok/s");
    r.add("latency_p50_ms", p50, "ms");
    r.add("latency_tail_ms", p99, "ms");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", rss, "MiB");
}

void
serveTraced(const Options &o, Report &r, SpanRecorder &rec,
            serve::KvCacheMode mode)
{
    std::unique_ptr<ServeState> s = setupServe(o.seed, mode);
    std::vector<ServeEpisode> plain;
    std::vector<ServeTraced> traced;
    const Clock::time_point t0 = Clock::now();
    while (plain.empty() || traced.empty() || secondsSince(t0) < o.seconds) {
        if (plain.size() <= traced.size()) {
            setTelemetry(false);
            plain.push_back(runServeEpisode(*s));
        } else {
            setTelemetry(true);
            traced.push_back(runServeEpisodeTraced(*s, rec));
        }
        // Tokens of the first episode only (batching check); the rest
        // are summarized by failed count and CRC.
        if (plain.size() + traced.size() > 1) {
            ServeEpisode &ep =
                plain.size() > traced.size() ? plain.back() : traced.back().ep;
            std::vector<serve::RequestResult>().swap(ep.results);
        }
    }
    setTelemetry(false);

    std::vector<ServeEpisode> all = plain;
    for (const ServeTraced &st : traced)
        all.push_back(st.ep);
    checkServeEpisodes(r, *s, all, "serve, traced and untraced");
    if (mode == serve::KvCacheMode::Fp32)
        checkBatchingInvariance(r, *s, plain.front(), mode);

    std::vector<double> plain_wall, traced_wall;
    for (const ServeEpisode &ep : plain)
        plain_wall.push_back(ep.run_s);
    for (const ServeTraced &st : traced)
        traced_wall.push_back(st.ep.run_s);
    const size_t mid = nearestToMedian(traced_wall);
    const ServeTraced &st = traced[mid];
    const serve::ServeStats &stats = st.ep.stats;

    BudgetNode tree = perfbench::budgetFromSpans(rec.spans(), st.root);
    BudgetNode *run = perfbench::findRow(tree, "serve.run");
    if (run == nullptr)
        fatal("perfbench: missing budget row serve.run");
    const double run_s = run->seconds;
    for (const auto &part : {std::make_pair("serve.prefill", stats.prefill_s),
                             std::make_pair("serve.decode", stats.decode_s)}) {
        BudgetNode child;
        child.name = part.first;
        child.seconds = part.second;
        run->children.push_back(child);
    }
    run->remainder = "serve.sched";
    perfbench::closeBudget(tree); // invalidates run
    std::printf("budget (%s, traced episode %zu of %zu):\n%s",
                o.workload.c_str(), mid + 1, traced.size(),
                perfbench::renderBudget(tree).c_str());

    const int64_t steps = counterDelta(st.t0, st.t1, Counter::ServeDecodeSteps);
    r.set("nn.attn_s", timerDelta(st.t0, st.t1, Timer::AttnFwd) +
                           timerDelta(st.t0, st.t1, Timer::AttnBwd));
    setKernelLayers(r, st.t0, st.t1, o.threads);
    r.set("serve.run_s", run_s);
    r.set("serve.prefill_s", stats.prefill_s);
    r.set("serve.decode_s", stats.decode_s);
    r.set("serve.sched_s", perfbench::sumRows(tree, "serve.sched"));
    r.set("serve.prefill_tok_s",
          stats.prefill_s > 0.0
              ? static_cast<double>(stats.prefill_tokens) / stats.prefill_s
              : 0.0);
    r.set("serve.non_gemm_s", run_s - timerDelta(st.t0, st.t1, Timer::Gemm));
    r.set("serve.decode_steps", static_cast<double>(stats.decode_steps));
    r.set("serve.batch_width",
          steps > 0 ? static_cast<double>(counterDelta(
                          st.t0, st.t1, Counter::ServeDecodeTokens)) /
                          static_cast<double>(steps)
                    : 0.0);
    r.set("serve.kv_pages_peak", static_cast<double>(stats.peak_kv_pages));
    r.set("serve.kv_page_allocs",
          static_cast<double>(
              counterDelta(st.t0, st.t1, Counter::KvPageAllocs)));
    r.set("serve.preempted", static_cast<double>(stats.preempted));
    r.set("serve.rejected", static_cast<double>(stats.rejected));
    r.set("serve.expired", static_cast<double>(stats.expired));
    r.set("unattributed_s", perfbench::sumRows(tree, "unattributed"));
    r.set("trace.overhead_share", overheadShare(traced_wall, plain_wall));
}

// --------------------------------------------------------------- main

bool
parseOptions(int argc, char **argv, Options *o)
{
    ArgParser args(argc, argv);
    o->workload = args.get("workload", "");
    o->seed = static_cast<uint64_t>(args.getInt("seed", 0));
    o->seconds = args.getDouble("seconds", 10.0);
    o->trace = args.getInt("trace", 0) != 0;
    o->threads = static_cast<int>(args.getInt("threads", 1));
    o->trace_out = args.get("trace-out", "");
    const std::string layers = args.get("layer-metrics", "");
    for (const std::string &item :
         layers.empty() ? std::vector<std::string>{} : split(layers, ',')) {
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == item.size())
            return false;
        o->layer_metrics.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    if (o->trace && o->layer_metrics.empty())
        return false;
    return (o->workload == "train_fp4_snip" ||
            o->workload == "serve_fp8kv" ||
            o->workload == "serve_fp32kv") &&
           o->seconds > 0.0 && o->threads > 0;
}

int
benchMain(int argc, char **argv)
{
    // Instruments and fault schedules change what is measured; the
    // benchmark configures telemetry itself and refuses inherited ones.
    for (const char *var : {"SNIP_TRACE", "SNIP_TELEMETRY", "SNIP_FAULT"}) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         var);
            return 2;
        }
    }
    Options o;
    if (!parseOptions(argc, argv, &o)) {
        std::fprintf(stderr,
                     "usage: snipbench --workload=train_fp4_snip|"
                     "serve_fp8kv|serve_fp32kv --seed=N --seconds=S "
                     "--trace=0|1 --threads=T [--trace-out=PATH] "
                     "[--layer-metrics=NAME=UNIT,...]\n"
                     "  (--layer-metrics is required with --trace=1)\n");
        return 2;
    }
    runtime::setGlobalThreadCount(o.threads);
    std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::printf("fingerprint %s\n", fingerprint(o.threads).c_str());
    std::fflush(stdout);

    const serve::KvCacheMode mode = o.workload == "serve_fp32kv"
                                        ? serve::KvCacheMode::Fp32
                                        : serve::KvCacheMode::Fp8;
    Report r;
    if (!o.trace) {
        if (o.workload == "train_fp4_snip")
            trainTimed(o, r);
        else
            serveTimed(o, r, mode);
    } else {
        SpanRecorder rec;
        r.declare(o.layer_metrics);
        if (o.workload == "train_fp4_snip")
            trainTraced(o, r, rec);
        else
            serveTraced(o, r, rec, mode);
        r.set("failed_share", static_cast<double>(r.failed()) /
                                  static_cast<double>(r.attempted()));
        if (!o.trace_out.empty()) {
            std::ofstream out(o.trace_out, std::ios::binary);
            out << rec.chromeJson();
            out.close();
            if (!out) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             o.trace_out.c_str());
                return 2;
            }
            std::printf("wrote %s (%zu spans)\n", o.trace_out.c_str(),
                        rec.spans().size());
        }
    }
    std::printf("%s\n", r.json().c_str());
    return r.correct() ? 0 : 1;
}

} // namespace
} // namespace snip

int
main(int argc, char **argv)
{
    return snip::benchMain(argc, argv);
}
