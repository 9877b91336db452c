/**
 * @file
 * Process-wide runtime configuration captured from the environment.
 *
 * Historically every subsystem called std::getenv for its own knob
 * (SNIP_THREADS in the thread pool, SNIP_SIMD in the dispatcher, ...)
 * at first use, which made it impossible to answer "what configuration
 * is this process actually running under?" without replicating each
 * parser. EnvConfig centralizes the capture and the parsing: the
 * environment is read once, on first use, into an immutable snapshot
 * that every subsystem resolves its knob from and that benches can
 * print verbatim via dump().
 *
 * Knobs:
 *   SNIP_THREADS    worker count for the global pool (>=1, capped 512)
 *   SNIP_SIMD       kernel backend: auto|avx2|scalar
 *   SNIP_TELEMETRY  telemetry sink: off|on|json:<path>
 *   SNIP_TRACE      span-trace sink: off|on|json:<path>
 *   SNIP_KV_CACHE   serving KV-cache storage: fp8|fp32
 *   SNIP_KV_PAGE    serving KV-cache page size in tokens (1..4096)
 *   SNIP_FAULT      fault-injection schedule:
 *                   <site>:<n|every-k|p=x[@seed]>[,...] (off when
 *                   unset; see runtime/fault_injection.h)
 *
 * Only the knobs whose grammar is owned here (threads, KV page size)
 * are parsed eagerly; the string-valued specs are handed to their
 * owning modules (simd::, trace::, ...) untouched so the parse
 * warnings keep firing from the subsystem that understands them.
 *
 * Any other set SNIP_* variable draws one warning per process (a
 * script still exporting a retired knob would otherwise run silently
 * under different numerics than it asks for) and is listed by dump().
 */
#ifndef SNIP_RUNTIME_ENV_CONFIG_H
#define SNIP_RUNTIME_ENV_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace snip {
namespace runtime {

/** One captured environment variable: present/absent plus raw text. */
struct EnvKnob
{
    bool set = false;
    std::string value;

    /** The captured text, or null when the variable was unset —
     *  exactly what std::getenv would have returned at capture time. */
    const char *
    cstrOrNull() const
    {
        return set ? value.c_str() : nullptr;
    }
};

/** Immutable snapshot of every SNIP_* environment knob. */
class EnvConfig
{
  public:
    /** Read the current environment into a fresh snapshot. */
    static EnvConfig fromEnvironment();

    /** Parsed SNIP_THREADS: the historical defaultThreadCount()
     *  contract (valid integer >= 1 capped at 512; otherwise a warning
     *  and std::thread::hardware_concurrency, floored at 1). */
    int threads() const { return threads_; }

    /** Parsed SNIP_KV_PAGE: tokens per KV-cache page, default 16,
     *  clamped to [1, 4096] with a warning on invalid input. */
    int64_t kvPageTokens() const { return kv_page_tokens_; }

    const EnvKnob &threadsKnob() const { return threads_knob_; }
    const EnvKnob &simd() const { return simd_; }
    const EnvKnob &telemetry() const { return telemetry_; }
    const EnvKnob &trace() const { return trace_; }
    const EnvKnob &kvCache() const { return kv_cache_; }
    const EnvKnob &kvPage() const { return kv_page_; }
    const EnvKnob &fault() const { return fault_; }

    /** Names of the set SNIP_* variables that are not knobs, in
     *  environment order. */
    const std::vector<std::string> &unknownKnobs() const
    {
        return unknown_;
    }

    /** Human-readable multi-line rendering of every knob: the
     *  effective value plus the raw environment text (or "unset"). */
    std::string dump() const;

  private:
    EnvKnob threads_knob_;
    EnvKnob simd_;
    EnvKnob telemetry_;
    EnvKnob trace_;
    EnvKnob kv_cache_;
    EnvKnob kv_page_;
    EnvKnob fault_;
    std::vector<std::string> unknown_;
    int threads_ = 1;
    int64_t kv_page_tokens_ = 16;
};

/** The process-wide snapshot, captured on first use (warning once
 *  for each unknown SNIP_* variable). */
const EnvConfig &envConfig();

/**
 * Re-capture the environment into the process-wide snapshot and
 * return it. Test-only: callers own the race (no in-flight readers),
 * mirroring simd::reinitFromEnv().
 */
const EnvConfig &reloadEnvConfig();

} // namespace runtime
} // namespace snip

#endif // SNIP_RUNTIME_ENV_CONFIG_H
