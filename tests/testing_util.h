/**
 * @file
 * Helpers shared by the test executables (each tests/test_*.cpp builds
 * standalone; this header is included relative to the source).
 */
#ifndef SNIP_TESTS_TESTING_UTIL_H
#define SNIP_TESTS_TESTING_UTIL_H

#include "runtime/thread_pool.h"

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

} // namespace snip

#endif // SNIP_TESTS_TESTING_UTIL_H
