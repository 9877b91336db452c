/**
 * @file
 * EnvConfig tests: per-knob capture and parsing must match the
 * historical per-subsystem getenv behavior exactly, the dump must
 * name every knob, and an unknown SNIP_* variable must warn once.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "runtime/env_config.h"
#include "serve/kv_cache.h"

namespace snip {
namespace {

/** Saves/restores one environment variable across a test. */
class EnvVarGuard
{
  public:
    explicit EnvVarGuard(const char *name) : name_(name)
    {
        const char *v = std::getenv(name);
        had_ = v != nullptr;
        if (had_)
            old_ = v;
    }
    ~EnvVarGuard()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
        runtime::reloadEnvConfig();
    }
    EnvVarGuard(const EnvVarGuard &) = delete;
    EnvVarGuard &operator=(const EnvVarGuard &) = delete;

    void
    set(const char *value)
    {
        setenv(name_, value, 1);
        runtime::reloadEnvConfig();
    }
    void
    unset()
    {
        unsetenv(name_);
        runtime::reloadEnvConfig();
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

TEST(EnvConfig, ThreadsParsesHistoricalContract)
{
    EnvVarGuard guard("SNIP_THREADS");
    guard.set("3");
    EXPECT_EQ(runtime::envConfig().threads(), 3);
    guard.set("1");
    EXPECT_EQ(runtime::envConfig().threads(), 1);
    // Cap at 512, matching the historical defaultThreadCount().
    guard.set("100000");
    EXPECT_EQ(runtime::envConfig().threads(), 512);
    // Invalid values warn and fall back to hardware concurrency >= 1.
    guard.set("not-a-number");
    EXPECT_GE(runtime::envConfig().threads(), 1);
    guard.set("0");
    EXPECT_GE(runtime::envConfig().threads(), 1);
    guard.set("-4");
    EXPECT_GE(runtime::envConfig().threads(), 1);
    guard.unset();
    const int fallback = runtime::envConfig().threads();
    EXPECT_GE(fallback, 1);
    // A number with trailing text is invalid too, not its leading
    // digits: each falls back like "not-a-number". The digit differs
    // from the fallback so a parsed prefix cannot pass by accident.
    const std::string d = fallback == 5 ? "6" : "5";
    for (const std::string &bad : {d + "x", d + ".5", d + "e3", d + " "}) {
        SCOPED_TRACE(bad);
        guard.set(bad.c_str());
        EXPECT_EQ(runtime::envConfig().threads(), fallback);
    }
}

TEST(EnvConfig, KvPageParsesAndClamps)
{
    EnvVarGuard guard("SNIP_KV_PAGE");
    guard.unset();
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 16);
    guard.set("32");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 32);
    guard.set("1");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 1);
    // Oversized pages clamp to 4096; garbage falls back to 16.
    guard.set("999999");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 4096);
    guard.set("12abc");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 16);
    guard.set("-5");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 16);
}

TEST(EnvConfig, StringKnobsCaptureRawText)
{
    EnvVarGuard simd("SNIP_SIMD");
    simd.set("scalar");
    EXPECT_TRUE(runtime::envConfig().simd().set);
    EXPECT_EQ(runtime::envConfig().simd().value, "scalar");
    simd.unset();
    EXPECT_FALSE(runtime::envConfig().simd().set);
    EXPECT_EQ(runtime::envConfig().simd().cstrOrNull(), nullptr);

    EnvVarGuard kv("SNIP_KV_CACHE");
    kv.set("fp32");
    EXPECT_EQ(runtime::envConfig().kvCache().value, "fp32");
}

const char *const kKnobNames[] = {
    "SNIP_THREADS", "SNIP_SIMD",    "SNIP_TELEMETRY", "SNIP_TRACE",
    "SNIP_KV_CACHE", "SNIP_KV_PAGE", "SNIP_FAULT",
};

TEST(EnvConfig, UnknownSnipVariableWarnsOnce)
{
    auto unknown = [] { return runtime::envConfig().unknownKnobs(); };
    auto listed = [&](const std::string &name) {
        for (const std::string &u : unknown())
            if (u == name)
                return true;
        return false;
    };
    EnvVarGuard guard("SNIP_NOT_A_KNOB");
    testing::internal::CaptureStderr();
    guard.set("off");
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown environment variable SNIP_NOT_A_KNOB"),
              std::string::npos)
        << err;
    EXPECT_TRUE(listed("SNIP_NOT_A_KNOB"));
    EXPECT_NE(runtime::envConfig().dump().find("SNIP_NOT_A_KNOB"),
              std::string::npos);

    // Once per process: a re-capture lists it but stays quiet.
    testing::internal::CaptureStderr();
    guard.set("on");
    err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("SNIP_NOT_A_KNOB"), std::string::npos) << err;
    EXPECT_TRUE(listed("SNIP_NOT_A_KNOB"));

    // Knobs are never reported as unknown, nor warned about.
    for (const char *knob : kKnobNames) {
        EnvVarGuard k(knob);
        testing::internal::CaptureStderr();
        k.set("1");
        err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(err.find("unknown environment variable"),
                  std::string::npos)
            << knob << ": " << err;
        EXPECT_FALSE(listed(knob)) << knob;
    }
    guard.unset();
    EXPECT_FALSE(listed("SNIP_NOT_A_KNOB"));
}

TEST(EnvConfig, TraceKnobCapturesRawText)
{
    EnvVarGuard guard("SNIP_TRACE");
    guard.set("json:/tmp/spans.json");
    EXPECT_TRUE(runtime::envConfig().trace().set);
    EXPECT_EQ(runtime::envConfig().trace().value, "json:/tmp/spans.json");
    // Handed to trace::configureFromSpec untouched — the grammar is
    // owned there, so even a bogus spec is captured verbatim.
    guard.set("bogus");
    EXPECT_EQ(runtime::envConfig().trace().value, "bogus");
    guard.unset();
    EXPECT_FALSE(runtime::envConfig().trace().set);
    EXPECT_EQ(runtime::envConfig().trace().cstrOrNull(), nullptr);
}

TEST(EnvConfig, KvCacheModeFollowsEnv)
{
    EnvVarGuard guard("SNIP_KV_CACHE");
    guard.unset();
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp8);
    guard.set("fp32");
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp32);
    guard.set("fp8");
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp8);
    // Unknown spellings warn and keep the default.
    guard.set("bf16");
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp8);
}

TEST(EnvConfig, DumpNamesEveryKnob)
{
    const std::string d = runtime::envConfig().dump();
    for (const char *knob : kKnobNames)
        EXPECT_NE(d.find(knob), std::string::npos) << knob;
}

} // namespace
} // namespace snip
