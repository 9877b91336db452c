#include "runtime/env_config.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

extern char **environ;

namespace snip {
namespace runtime {

namespace {

/** Capture one knob and record its name in *known, so the captures
 *  themselves are the one list of knob names. */
EnvKnob
captureKnob(const char *name, std::vector<const char *> *known)
{
    known->push_back(name);
    EnvKnob k;
    if (const char *v = std::getenv(name)) {
        k.set = true;
        k.value = v;
    }
    return k;
}

int
parseThreads(const EnvKnob &knob)
{
    if (knob.set) {
        const char *env = knob.value.c_str();
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<int>(std::min<long>(v, 512));
        warn("ignoring invalid SNIP_THREADS value '", env, "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int64_t
parseKvPage(const EnvKnob &knob)
{
    constexpr int64_t kDefault = 16;
    if (!knob.set)
        return kDefault;
    const char *env = knob.value.c_str();
    char *end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1) {
        warn("ignoring invalid SNIP_KV_PAGE value '", env, "'");
        return kDefault;
    }
    return std::min<long>(v, 4096);
}

/** Names of the set SNIP_* variables that are not in known. */
std::vector<std::string>
captureUnknown(const std::vector<const char *> &known)
{
    std::vector<std::string> out;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e) {
        if (std::strncmp(*e, "SNIP_", 5) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        std::string name(*e, eq ? static_cast<size_t>(eq - *e)
                                : std::strlen(*e));
        if (std::none_of(known.begin(), known.end(),
                         [&](const char *k) { return name == k; }))
            out.push_back(std::move(name));
    }
    return out;
}

void
appendKnob(std::string *out, const char *name, const EnvKnob &knob,
           const std::string &effective)
{
    out->append(strformat("  %-14s = %-10s (%s)\n", name,
                          effective.c_str(),
                          knob.set
                              ? ("env \"" + knob.value + "\"").c_str()
                              : "unset"));
}

util::Mutex g_mu;
// Intentionally leaked so late readers (static destructors, atexit
// telemetry flushes) never see a destroyed snapshot. The POINTER is
// guarded; the snapshot it points at is immutable after publication
// (reloadEnvConfig is a test-only seam, documented in the header).
EnvConfig *g_config SNIP_GUARDED_BY(g_mu) = nullptr;
/** Unknown variables already warned about (once per process); leaked
 *  like g_config. */
std::set<std::string> *g_warned SNIP_GUARDED_BY(g_mu) = nullptr;

void
warnUnknownOnce(const EnvConfig &c) SNIP_REQUIRES(g_mu)
{
    if (g_warned == nullptr)
        g_warned = new std::set<std::string>;
    for (const std::string &name : c.unknownKnobs())
        if (g_warned->insert(name).second)
            warn("ignoring unknown environment variable ", name,
                 " (not a SNIP knob; see runtime/env_config.h)");
}

} // namespace

EnvConfig
EnvConfig::fromEnvironment()
{
    EnvConfig c;
    std::vector<const char *> known;
    c.threads_knob_ = captureKnob("SNIP_THREADS", &known);
    c.simd_ = captureKnob("SNIP_SIMD", &known);
    c.telemetry_ = captureKnob("SNIP_TELEMETRY", &known);
    c.trace_ = captureKnob("SNIP_TRACE", &known);
    c.kv_cache_ = captureKnob("SNIP_KV_CACHE", &known);
    c.kv_page_ = captureKnob("SNIP_KV_PAGE", &known);
    c.fault_ = captureKnob("SNIP_FAULT", &known);
    c.unknown_ = captureUnknown(known);
    c.threads_ = parseThreads(c.threads_knob_);
    c.kv_page_tokens_ = parseKvPage(c.kv_page_);
    return c;
}

std::string
EnvConfig::dump() const
{
    std::string out = "runtime config:\n";
    appendKnob(&out, "SNIP_THREADS", threads_knob_,
               strformat("%d", threads_));
    appendKnob(&out, "SNIP_SIMD", simd_,
               simd_.set ? simd_.value : "auto");
    appendKnob(&out, "SNIP_TELEMETRY", telemetry_,
               telemetry_.set ? telemetry_.value : "off");
    appendKnob(&out, "SNIP_TRACE", trace_,
               trace_.set ? trace_.value : "off");
    appendKnob(&out, "SNIP_KV_CACHE", kv_cache_,
               kv_cache_.set ? kv_cache_.value : "fp8");
    appendKnob(&out, "SNIP_KV_PAGE", kv_page_,
               strformat("%lld",
                         static_cast<long long>(kv_page_tokens_)));
    appendKnob(&out, "SNIP_FAULT", fault_,
               fault_.set ? fault_.value : "off");
    for (const std::string &name : unknown_)
        out.append(strformat("  %-14s   ignored (unknown knob)\n",
                             name.c_str()));
    return out;
}

const EnvConfig &
envConfig()
{
    util::MutexLock lk(g_mu);
    if (g_config == nullptr) {
        g_config = new EnvConfig(EnvConfig::fromEnvironment());
        warnUnknownOnce(*g_config);
    }
    return *g_config;
}

const EnvConfig &
reloadEnvConfig()
{
    util::MutexLock lk(g_mu);
    if (g_config == nullptr)
        g_config = new EnvConfig;
    *g_config = EnvConfig::fromEnvironment();
    warnUnknownOnce(*g_config);
    return *g_config;
}

} // namespace runtime
} // namespace snip
