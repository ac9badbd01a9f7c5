/**
 * @file
 * Unit tests for the statistics helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"

namespace oscar
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStat, MeanMinMaxSum)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, NegativeValues)
{
    RunningStat s;
    s.add(-5.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, ResetForgets)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    RunningStat a;
    RunningStat b;
    RunningStat combined;
    for (int i = 0; i < 10; ++i) {
        a.add(i);
        combined.add(i);
    }
    for (int i = 50; i < 70; ++i) {
        b.add(i);
        combined.add(i);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a;
    a.add(3.0);
    RunningStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(RatioStat, EmptyRatioIsZero)
{
    RatioStat r;
    EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(RatioStat, CountsHitsAndTotal)
{
    RatioStat r;
    r.add(true);
    r.add(false);
    r.add(true);
    r.add(true);
    EXPECT_EQ(r.hits(), 3u);
    EXPECT_EQ(r.total(), 4u);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.75);
}

TEST(RatioStat, AddMany)
{
    RatioStat r;
    r.addMany(30, 100);
    r.addMany(20, 100);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.25);
}

TEST(RatioStat, ResetForgets)
{
    RatioStat r;
    r.add(true);
    r.reset();
    EXPECT_EQ(r.total(), 0u);
}

TEST(RatioStat, MergeMatchesPooled)
{
    RatioStat a;
    RatioStat b;
    RatioStat pooled;
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const bool hit = rng.nextBool(0.3);
        a.add(hit);
        pooled.add(hit);
    }
    for (int i = 0; i < 300; ++i) {
        const bool hit = rng.nextBool(0.8);
        b.add(hit);
        pooled.add(hit);
    }
    a.merge(b);
    EXPECT_EQ(a.hits(), pooled.hits());
    EXPECT_EQ(a.total(), pooled.total());
    EXPECT_DOUBLE_EQ(a.ratio(), pooled.ratio());
}

TEST(RatioStat, MergeWithEmptyIsIdentity)
{
    RatioStat a;
    a.addMany(3, 10);
    RatioStat empty;
    a.merge(empty);
    EXPECT_EQ(a.hits(), 3u);
    EXPECT_EQ(a.total(), 10u);
    empty.merge(a);
    EXPECT_EQ(empty.hits(), 3u);
    EXPECT_EQ(empty.total(), 10u);
}

TEST(LatencyHistogram, EmptyIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (double q : {0.0, 0.5, 1.0})
        EXPECT_EQ(h.quantile(q), 0u) << "q=" << q;
    EXPECT_EQ(h.toString(), "");
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    // Values below 2^kSubBucketBits land in unit-width slots, so
    // quantiles of small distributions are exact.
    LatencyHistogram h;
    for (std::uint64_t v = 0; v <= 31; ++v)
        h.add(v);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 16u);
    EXPECT_EQ(h.quantile(1.0), 31u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    EXPECT_DOUBLE_EQ(h.mean(), 15.5);
}

TEST(LatencyHistogram, QuantileOneIsObservedMax)
{
    LatencyHistogram h;
    h.add(1'000'000);
    h.add(123);
    EXPECT_EQ(h.quantile(1.0), 1'000'000u);
    EXPECT_EQ(h.max(), 1'000'000u);
}

// The headline guarantee: every quantile is within a relative
// 2^-kSubBucketBits of an exact reference computed from the sorted
// sample vector.
TEST(LatencyHistogram, QuantileRelativeErrorIsBounded)
{
    const double tolerance =
        std::pow(2.0, -double(LatencyHistogram::kSubBucketBits));
    for (std::uint64_t seed : {34u, 36u, 39u}) {
        LatencyHistogram h;
        std::vector<std::uint64_t> values;
        Rng rng(seed);
        for (int i = 0; i < 5000; ++i) {
            // Latency-like spread: exponential bulk plus a heavy tail.
            const double x = rng.nextExponential(50'000.0) +
                             rng.nextBoundedPareto(1.0, 1e9, 1.2);
            values.push_back(static_cast<std::uint64_t>(x));
            h.add(values.back());
        }
        std::sort(values.begin(), values.end());
        for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
            const std::uint64_t exact = values[static_cast<size_t>(
                q * static_cast<double>(values.size()))];
            const std::uint64_t approx = h.quantile(q);
            // The reported value is an upper bound of the exact
            // sample's sub-bucket: never below it, and at most one
            // sub-bucket width (2^-kSubBucketBits relative) above.
            EXPECT_GE(approx, exact) << "seed=" << seed << " q=" << q;
            EXPECT_LE(static_cast<double>(approx - exact),
                      tolerance * static_cast<double>(exact) + 1.0)
                << "seed=" << seed << " q=" << q;
        }
    }
}

TEST(LatencyHistogram, FullRangeValuesDoNotOverflow)
{
    LatencyHistogram h;
    h.add(UINT64_MAX);
    h.add(UINT64_MAX - 1);
    h.add(1ULL << 63);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.max(), UINT64_MAX);
    EXPECT_EQ(h.quantile(1.0), UINT64_MAX);
    EXPECT_GE(h.quantile(0.0), 1ULL << 63);
}

TEST(LatencyHistogram, MeanIsExactPastDoublePrecision)
{
    LatencyHistogram h;
    h.add(1ULL << 53);
    for (int i = 0; i < 1000; ++i)
        h.add(1);
    EXPECT_DOUBLE_EQ(h.mean(), (0x1.0p53 + 1000.0) / 1001.0);
}

// Property: mean() after a randomized integer stream equals a
// reference sum carried in __int128 — exact accumulation, not
// floating-point drift.
TEST(LatencyHistogram, MeanMatchesExactReferenceOnRandomStreams)
{
    Rng rng(2024);
    for (int round = 0; round < 8; ++round) {
        LatencyHistogram h;
        unsigned __int128 reference = 0;
        const int n = 1 + static_cast<int>(rng.nextBounded(4000));
        for (int i = 0; i < n; ++i) {
            // Mix magnitudes: many values near 2^53..2^63 so the sum
            // leaves double territory quickly.
            const std::uint64_t v =
                rng.next64() >> rng.nextBounded(24);
            h.add(v);
            reference += v;
        }
        const double expected = static_cast<double>(
            static_cast<long double>(reference) / n);
        // Within EXPECT_DOUBLE_EQ's 4-ulp slack of the exact mean;
        // double accumulation drifted by tens-to-hundreds of ulps on
        // these streams.
        EXPECT_DOUBLE_EQ(h.mean(), expected)
            << "round " << round << " n=" << n;
    }
}

TEST(LatencyHistogram, MergeMatchesPooled)
{
    LatencyHistogram a;
    LatencyHistogram b;
    LatencyHistogram pooled;
    Rng rng(55);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t v = rng.next64() >> rng.nextBounded(50);
        if (rng.nextBool(0.4)) {
            a.add(v);
        } else {
            b.add(v);
        }
        pooled.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), pooled.count());
    EXPECT_EQ(a.min(), pooled.min());
    EXPECT_EQ(a.max(), pooled.max());
    EXPECT_DOUBLE_EQ(a.mean(), pooled.mean());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0})
        EXPECT_EQ(a.quantile(q), pooled.quantile(q)) << "q=" << q;
    EXPECT_EQ(a.toString(), pooled.toString());
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity)
{
    LatencyHistogram a;
    a.add(100);
    a.add(200);
    LatencyHistogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.max(), 200u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_EQ(empty.min(), 100u);
    EXPECT_DOUBLE_EQ(empty.mean(), 150.0);
}

TEST(LatencyHistogram, EmptyMergesLikeFilledBothWays)
{
    // A histogram allocates its slots on the first sample, so an empty
    // one merged into a filled one, or a filled one into an empty one,
    // must give exactly the filled one's distribution; a reset, never
    // filled histogram stays empty too.
    LatencyHistogram filled;
    Rng rng(91);
    for (int i = 0; i < 2000; ++i)
        filled.add(rng.next64() >> rng.nextBounded(56));
    LatencyHistogram into = filled;
    into.merge(LatencyHistogram());
    LatencyHistogram outof;
    outof.reset();
    outof.merge(filled);
    for (const LatencyHistogram *h : {&into, &outof}) {
        EXPECT_EQ(h->count(), filled.count());
        EXPECT_EQ(h->sum(), filled.sum());
        EXPECT_EQ(h->sumWrapCount(), filled.sumWrapCount());
        EXPECT_EQ(h->min(), filled.min());
        EXPECT_EQ(h->max(), filled.max());
        EXPECT_DOUBLE_EQ(h->mean(), filled.mean());
        for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
            EXPECT_EQ(h->quantile(q), filled.quantile(q)) << "q=" << q;
        EXPECT_EQ(h->toString(), filled.toString());
    }
}

TEST(LatencyHistogram, MergeEmptyWithEmpty)
{
    LatencyHistogram a;
    LatencyHistogram b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(a.sum(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    for (double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(a.quantile(q), 0u) << "q=" << q;
}

TEST(LatencyHistogram, SingleSampleQuantiles)
{
    LatencyHistogram h;
    h.add(123'457);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 123'457u);
    EXPECT_EQ(h.max(), 123'457u);
    EXPECT_EQ(h.sum(), 123'457u);
    EXPECT_DOUBLE_EQ(h.mean(), 123'457.0);
    // Every quantile of a one-sample distribution is that sample:
    // q=1.0 is clamped to the observed max, and every lower quantile
    // resolves to the only occupied bucket.
    for (double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
        const std::uint64_t v = h.quantile(q);
        EXPECT_GE(v, 123'457u) << "q=" << q;
        EXPECT_LE(v, h.max()) << "q=" << q;
    }
    EXPECT_EQ(h.quantile(1.0), 123'457u);
}

TEST(LatencyHistogram, SumIsExactModulo64)
{
    // valueSum accumulates mod 2^64 with an explicit wrap counter, so
    // two histograms over the same samples compare exactly.
    LatencyHistogram h;
    h.add(UINT64_MAX);
    h.add(3);
    EXPECT_EQ(h.sum(), 2u); // UINT64_MAX + 3 wraps to 2
    EXPECT_EQ(h.sumWrapCount(), 1u);
    LatencyHistogram same;
    same.add(3);
    same.add(UINT64_MAX);
    EXPECT_EQ(h.sum(), same.sum());
    EXPECT_EQ(h.sumWrapCount(), same.sumWrapCount());
}

// The span-attribution invariant at the histogram level: decompose
// each synthetic request's latency into per-phase parts, feed every
// part to its phase histogram and the whole to a total histogram, and
// the per-phase sums must reconstruct the end-to-end sum exactly —
// the same cross-check the oscar.spans.v1 validator applies.
TEST(LatencyHistogram, PhaseSumsReconstructEndToEnd)
{
    constexpr std::size_t kPhases = 10;
    LatencyHistogram total;
    LatencyHistogram phase[kPhases];
    Rng rng(77);
    for (int req = 0; req < 2000; ++req) {
        std::uint64_t latency = 0;
        for (std::size_t p = 0; p < kPhases; ++p) {
            // Heavy-tailed parts, many of them zero — the shape real
            // phase decompositions have.
            const std::uint64_t part =
                rng.nextBool(0.4) ? 0 : rng.next64() >> 40;
            phase[p].add(part);
            latency += part;
        }
        total.add(latency);
    }
    std::uint64_t reconstructed = 0;
    for (std::size_t p = 0; p < kPhases; ++p) {
        EXPECT_EQ(phase[p].count(), total.count()) << "p=" << p;
        reconstructed += phase[p].sum();
    }
    EXPECT_EQ(reconstructed, total.sum());
}

TEST(LatencyHistogram, ResetForgets)
{
    LatencyHistogram h;
    h.add(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.add(7);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.quantile(1.0), 7u);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(LatencyHistogram, ToStringReportsPercentiles)
{
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<std::uint64_t>(i));
    const std::string text = h.toString();
    EXPECT_NE(text.find("n=1000"), std::string::npos) << text;
    EXPECT_NE(text.find("p99"), std::string::npos) << text;
    EXPECT_NE(text.find("max=1000"), std::string::npos) << text;
}

TEST(Formatting, Percent)
{
    EXPECT_EQ(formatPercent(0.4575), "45.75%");
    EXPECT_EQ(formatPercent(0.082, 1), "8.2%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Formatting, CountSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(1234567), "1,234,567");
}

TEST(Formatting, PercentEdges)
{
    EXPECT_EQ(formatPercent(0.0), "0.00%");
    EXPECT_EQ(formatPercent(0.0, 0), "0%");
    EXPECT_EQ(formatPercent(1.0), "100.00%");
    EXPECT_EQ(formatPercent(2.5, 0), "250%");
}

TEST(Formatting, CountEdges)
{
    EXPECT_EQ(formatCount(100000), "100,000");
    EXPECT_EQ(formatCount(UINT64_MAX), "18,446,744,073,709,551,615");
}

} // namespace
} // namespace oscar
