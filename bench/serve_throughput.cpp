/**
 * @file
 * Serving throughput/latency bench: drives the continuous-batching
 * engine over a synthetic open-loop request stream in both KV-cache
 * storage modes and reports tokens/s plus p50/p99 TTFT and
 * inter-token latency.
 *
 * With --trace[=PATH] span tracing is enabled for the measured runs
 * and a Chrome trace-event JSON (Perfetto-loadable, summarizable with
 * tools/trace_report.py) is written at exit.
 *
 * Usage:
 *   serve_throughput [--requests=64] [--concurrency=8] [--seed=7]
 *                    [--threads=N] [--trace[=PATH]]
 */
#include <algorithm>
#include <cstdio>
#include <string>

#include "nn/model.h"
#include "runtime/env_config.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "telemetry/trace.h"
#include "train/presets.h"
#include "util/string_util.h"

namespace snip {
namespace {

struct ModeResult
{
    const char *mode;
    serve::ServeStats stats;
};

ModelConfig
benchModel()
{
    ModelConfig m = tinyTestModel();
    m.max_seq = 256;
    return m;
}

ModeResult
runMode(LlamaModel &model, serve::KvCacheMode mode, int64_t requests,
        int64_t concurrency, uint64_t seed)
{
    serve::SyntheticStreamConfig sc;
    sc.n_requests = requests;
    sc.seed = seed;
    sc.vocab = model.config().vocab_size;
    sc.min_prompt = 16;
    sc.max_prompt = 96;
    sc.min_new = 16;
    sc.max_new = 64;
    sc.arrival_rate = 0.0; // closed burst: engine stays saturated

    serve::EngineConfig ec;
    ec.max_concurrency = concurrency;
    ec.kv_mode = mode;
    serve::Engine engine(model, ec);

    auto queue = serve::RequestQueue::synthetic(sc);
    engine.run(queue);
    return {serve::kvCacheModeName(mode), engine.stats()};
}

double
prefillTokensPerSecond(const serve::ServeStats &s)
{
    if (s.prefill_s <= 0.0)
        return 0.0;
    return static_cast<double>(s.prefill_tokens) / s.prefill_s;
}

void
printMode(const ModeResult &r)
{
    const serve::ServeStats &s = r.stats;
    std::printf("%-5s %9.0f tok/s  prefill %7.0f tok/s  "
                "ttft p50 %7.3f ms p99 %7.3f ms  "
                "itl p50 %7.3f ms p99 %7.3f ms  steps %lld\n",
                r.mode, s.tokensPerSecond(),
                prefillTokensPerSecond(s), s.p50_ttft_s * 1e3,
                s.p99_ttft_s * 1e3, s.p50_itl_s * 1e3,
                s.p99_itl_s * 1e3,
                static_cast<long long>(s.decode_steps));
}

int
serveMain(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const int64_t requests = args.getInt("requests", 64);
    const int64_t concurrency = args.getInt("concurrency", 8);
    const uint64_t seed =
        static_cast<uint64_t>(args.getInt("seed", 7));
    const int64_t threads = args.getInt("threads", 0);
    if (threads > 0)
        runtime::setGlobalThreadCount(static_cast<int>(threads));

    const bool tracing = args.has("trace");
    std::string trace_path;
    if (tracing) {
        trace_path = args.get("trace", "");
        if (trace_path.empty())
            trace_path = "serve_trace.json";
        trace::Config tc;
        tc.enabled = true;
        tc.json_path = trace_path;
        trace::configure(tc);
    }

    std::printf("%s", runtime::envConfig().dump().c_str());
    std::printf("requests=%lld concurrency=%lld seed=%llu\n",
                static_cast<long long>(requests),
                static_cast<long long>(concurrency),
                static_cast<unsigned long long>(seed));

    LlamaModel model(benchModel(), seed);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    // Warm-up pass (arena growth, quantized-weight caches) then the
    // measured pass, per mode.
    for (serve::KvCacheMode mode :
         {serve::KvCacheMode::Fp8, serve::KvCacheMode::Fp32}) {
        runMode(model, mode, std::min<int64_t>(requests, 8),
                concurrency, seed);
        printMode(runMode(model, mode, requests, concurrency, seed));
    }
    if (tracing) {
        if (!trace::flush()) {
            std::fprintf(stderr, "cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("wrote %s (%lld spans)\n", trace_path.c_str(),
                    static_cast<long long>(trace::spansRecorded()));
    }
    return 0;
}

} // namespace
} // namespace snip

int
main(int argc, char **argv)
{
    return snip::serveMain(argc, argv);
}
