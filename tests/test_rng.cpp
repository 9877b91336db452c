/**
 * @file
 * Unit tests for the deterministic RNG.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace snip {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.nextU64() == b.nextU64());
    EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextDoublesEqualsRepeatedNextDouble)
{
    // The bulk draw is the same stream: same values, same position.
    for (int n : {0, 1, 7, 8, 64}) {
        Rng a(11), b(11);
        double bulk[64];
        a.nextDoubles(bulk, n);
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(bulk[i], b.nextDouble()) << "n=" << n << " i=" << i;
        EXPECT_EQ(a.state(), b.state()) << "n=" << n;
    }
}

TEST(Rng, NextBelowIsInRangeAndCoversValues)
{
    Rng rng(11);
    bool seen[10] = {};
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = rng.nextBelow(10);
        ASSERT_LT(v, 10u);
        seen[v] = true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng rng(13);
    bool lo = false, hi = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        lo |= (v == -3);
        hi |= (v == 3);
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, GaussianMomentsApproximatelyStandard)
{
    Rng rng(17);
    const int n = 50000;
    double sum = 0, sum_sq = 0;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianMeanStddevParameters)
{
    Rng rng(19);
    const int n = 50000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.nextGaussian(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(23);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreDecorrelated)
{
    Rng parent(31);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (parent.nextU64() == child.nextU64());
    EXPECT_LT(same, 2);
}

} // namespace
} // namespace snip
