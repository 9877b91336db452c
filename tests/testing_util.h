/**
 * @file
 * Helpers shared by the test executables (each tests/test_*.cpp builds
 * standalone; this header is included relative to the source).
 */
#ifndef SNIP_TESTS_TESTING_UTIL_H
#define SNIP_TESTS_TESTING_UTIL_H

#include <cstdlib>

#include "runtime/thread_pool.h"
#include "telemetry/trace.h"

namespace snip {

/** Restores the default global pool when a thread-sweeping test ends,
 *  including on early exit from a failed ASSERT. */
struct GlobalPoolGuard
{
    GlobalPoolGuard() = default;
    GlobalPoolGuard(const GlobalPoolGuard &) = delete;
    GlobalPoolGuard &operator=(const GlobalPoolGuard &) = delete;
    ~GlobalPoolGuard() { runtime::setGlobalThreadCount(0); }
};

/** Restores both instrumentation sinks to what SNIP_TELEMETRY and
 *  SNIP_TRACE ask for (off when unset) when a reconfiguring test
 *  ends. */
struct InstrumentGuard
{
    InstrumentGuard() = default;
    InstrumentGuard(const InstrumentGuard &) = delete;
    InstrumentGuard &operator=(const InstrumentGuard &) = delete;
    ~InstrumentGuard()
    {
        telemetry::configureFromSpec(std::getenv("SNIP_TELEMETRY"));
        trace::configureFromSpec(std::getenv("SNIP_TRACE"));
    }
};

/** Turn both instrumentation sinks on or off, in memory. */
inline void
setInstruments(bool on)
{
    telemetry::Config tc;
    tc.enabled = on;
    telemetry::configure(tc);
    trace::Config rc;
    rc.enabled = on;
    trace::configure(rc);
}

} // namespace snip

#endif // SNIP_TESTS_TESTING_UTIL_H
