/**
 * @file
 * Lightweight statistics: running means, ratios, and mergeable
 * latency histograms, in the spirit of gem5's stats package but sized
 * for this reproduction.
 */

#ifndef OSCAR_SIM_STATS_HH_
#define OSCAR_SIM_STATS_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace oscar
{

/**
 * Incremental mean/min/max/sum accumulator.
 */
class RunningStat
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Number of samples recorded. */
    std::uint64_t count() const { return n; }

    /** Mean of recorded samples; 0 when empty. */
    double mean() const { return n ? m : 0.0; }

    /** Smallest sample; 0 when empty. */
    double min() const { return n ? lo : 0.0; }

    /** Largest sample; 0 when empty. */
    double max() const { return n ? hi : 0.0; }

    /** Sum of all samples. */
    double sum() const { return total; }

    /** Forget all samples. */
    void reset();

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

  private:
    std::uint64_t n = 0;
    double m = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
};

/**
 * Hit/miss style ratio counter.
 */
class RatioStat
{
  public:
    /** Record one event; hit selects the numerator. */
    void
    add(bool hit)
    {
        hitCount += hit ? 1 : 0;
        ++totalCount;
    }

    /** Record many events at once. */
    void addMany(std::uint64_t hits_in, std::uint64_t total_in);

    /** Numerator. */
    std::uint64_t hits() const { return hitCount; }

    /** Denominator. */
    std::uint64_t total() const { return totalCount; }

    /** hits()/total(); 0 when empty. */
    double ratio() const;

    /** Forget all events. */
    void reset();

    /**
     * Events recorded since `mark`, an earlier copy of this counter
     * (the measured region of a never-reset counter).
     */
    RatioStat operator-(const RatioStat &mark) const;

    /**
     * Merge another counter into this one. Pooling counts is exact, so
     * merging per-shard ratios is byte-identical to having recorded
     * every event into a single counter — the property the parallel
     * sweep aggregation relies on.
     */
    void merge(const RatioStat &other);

  private:
    std::uint64_t hitCount = 0;
    std::uint64_t totalCount = 0;
};

/**
 * Mergeable latency histogram in the HdrHistogram mould: power-of-two
 * ranges each split into 2^kSubBucketBits = 32 linear sub-buckets, so
 * any recorded value — and therefore any reported quantile — carries
 * a bounded relative error of 2^-5 (~3%), across the full uint64
 * range with no configuration of an expected maximum.
 *
 * This is the recording structure behind request tail latencies: each
 * request's end-to-end latency (queueing + service + migration) is
 * add()ed in cycles, and p50/p95/p99/p999 are read with quantile().
 * Merging is bucket-wise and exact, so per-shard (or per-sweep-point)
 * histograms combine into the same distribution a single recorder
 * would have seen — results stay byte-identical at any job count.
 */
class LatencyHistogram
{
  public:
    /** log2 of linear sub-buckets per power-of-two range. */
    static constexpr unsigned kSubBucketBits = 5;

    /** Record one value. */
    void add(std::uint64_t value);

    /** Total samples. */
    std::uint64_t count() const { return samples; }

    /** Mean of recorded values; 0 when empty. */
    double mean() const;

    /** Smallest recorded value; 0 when empty. */
    std::uint64_t min() const { return samples ? lo : 0; }

    /** Largest recorded value; 0 when empty. */
    std::uint64_t max() const { return samples ? hi : 0; }

    /**
     * Quantile with bounded relative error: the upper bound of the
     * sub-bucket holding the sample of 0-based rank
     * min(floor(q * count), count - 1), clamped to the observed
     * maximum (so quantile(1) == max()). 0 when empty.
     *
     * @param q Quantile in [0, 1].
     */
    std::uint64_t quantile(double q) const;

    /** Merge another histogram into this one. */
    void merge(const LatencyHistogram &other);

    /**
     * Exact sum of recorded values, modulo 2^64. Unlike mean(), this
     * is not subject to double rounding, so per-phase sums can be
     * cross-checked against end-to-end sums with operator==.
     */
    std::uint64_t sum() const { return valueSum; }

    /** Times sum() wrapped past 2^64. */
    std::uint64_t sumWrapCount() const { return sumWraps; }

    /** Forget all samples. */
    void reset();

    /** Render min/mean/percentiles as one line; "" when empty. */
    std::string toString() const;

  private:
    /** Give every slot a zero count (done on the first add or merge);
     *  kept out of line, off add()'s hot path. */
    [[gnu::cold, gnu::noinline]] void allocate();

    /** Slot holding a value. */
    std::size_t slotFor(std::uint64_t value) const;

    /** Largest value a slot can hold. */
    std::uint64_t slotUpperBound(std::size_t slot) const;

    /** Empty until the first sample arrives, so that the many
     *  histograms that never record one cost no slot memory. */
    std::vector<std::uint64_t> slots;
    std::uint64_t samples = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    /**
     * Exact sum modulo 2^64 plus wrap count. Accumulating in a double
     * would silently round past 2^53 and let mean() drift on long
     * runs; the wrap counter keeps the sum exact to 2^128.
     */
    std::uint64_t valueSum = 0;
    std::uint64_t sumWraps = 0;
};

/** Format a double as a fixed-width percentage string, e.g. "45.75%". */
std::string formatPercent(double fraction, int decimals = 2);

/** Format a large count with thousands separators, e.g. "1,234,567". */
std::string formatCount(std::uint64_t value);

} // namespace oscar

#endif // OSCAR_SIM_STATS_HH_
