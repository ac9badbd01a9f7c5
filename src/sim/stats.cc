/**
 * @file
 * Implementation of the statistics helpers.
 */

#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace oscar
{

void
RunningStat::add(double x)
{
    ++n;
    total += x;
    if (n == 1) {
        m = x;
        s = 0.0;
        lo = x;
        hi = x;
        return;
    }
    const double old_m = m;
    m += (x - old_m) / static_cast<double>(n);
    s += (x - old_m) * (x - m);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
}

double
RunningStat::variance() const
{
    if (n < 2)
        return 0.0;
    return s / static_cast<double>(n);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double delta = other.m - m;
    const auto na = static_cast<double>(n);
    const auto nb = static_cast<double>(other.n);
    const double combined = na + nb;
    s += other.s + delta * delta * na * nb / combined;
    m += delta * nb / combined;
    n += other.n;
    total += other.total;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

void
RatioStat::addMany(std::uint64_t hits_in, std::uint64_t total_in)
{
    oscar_assert(hits_in <= total_in);
    hitCount += hits_in;
    totalCount += total_in;
}

double
RatioStat::ratio() const
{
    if (totalCount == 0)
        return 0.0;
    return static_cast<double>(hitCount) / static_cast<double>(totalCount);
}

void
RatioStat::reset()
{
    hitCount = 0;
    totalCount = 0;
}

RatioStat
RatioStat::operator-(const RatioStat &mark) const
{
    oscar_assert(mark.hitCount <= hitCount && mark.totalCount <= totalCount);
    RatioStat since;
    since.addMany(hitCount - mark.hitCount, totalCount - mark.totalCount);
    return since;
}

void
RatioStat::merge(const RatioStat &other)
{
    hitCount += other.hitCount;
    totalCount += other.totalCount;
    oscar_assert(hitCount <= totalCount);
}

LogHistogram::LogHistogram(unsigned max_bucket)
    : buckets(max_bucket, 0)
{
    // 64 buckets already cover every uint64 value; a larger count
    // would put quantile/toString bound math into undefined shifts.
    oscar_assert(max_bucket >= 1 && max_bucket <= 64);
}

std::uint64_t
LogHistogram::bucketUpperBound(unsigned b)
{
    // Bucket b covers [2^b, 2^(b+1)). The naive (2ULL << b) - 1 is an
    // undefined shift for b = 63; that bucket's bound is all-ones.
    if (b >= 63)
        return ~0ULL;
    return (2ULL << b) - 1;
}

void
LogHistogram::accumulate(std::uint64_t value)
{
    // Exact modular sum with wrap detection: unsigned overflow is
    // defined, and a wrapped result is always smaller than one addend.
    valueSum += value;
    if (valueSum < value)
        ++sumWraps;
}

void
LogHistogram::add(std::uint64_t value)
{
    unsigned b = 0;
    if (value > 0) {
        b = 63u - static_cast<unsigned>(__builtin_clzll(value));
    }
    b = std::min(b, static_cast<unsigned>(buckets.size() - 1));
    ++buckets[b];
    ++samples;
    if (value == 0)
        ++zeroCount;
    accumulate(value);
}

std::uint64_t
LogHistogram::bucketCount(unsigned b) const
{
    oscar_assert(b < buckets.size());
    return buckets[b];
}

double
LogHistogram::mean() const
{
    if (samples == 0)
        return 0.0;
    // The common case (no wrap) divides the exact integer sum once, so
    // the result is the correctly rounded double of the true mean.
    if (sumWraps == 0)
        return static_cast<double>(valueSum) /
               static_cast<double>(samples);
    const long double sum =
        static_cast<long double>(sumWraps) * 0x1.0p64L +
        static_cast<long double>(valueSum);
    return static_cast<double>(sum / static_cast<long double>(samples));
}

std::uint64_t
LogHistogram::quantile(double q) const
{
    oscar_assert(q >= 0.0 && q <= 1.0);
    if (samples == 0)
        return 0;
    // The loop below finds the bucket of the (target+1)-th sample, so
    // target must stay a valid 0-based rank: q = 1.0 would otherwise
    // compute target == samples and fall through to the top bucket's
    // bound regardless of the data.
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(samples));
    target = std::min(target, samples - 1);
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < buckets.size(); ++b) {
        seen += buckets[b];
        if (seen > target)
            return bucketUpperBound(b);
    }
    return bucketUpperBound(
        static_cast<unsigned>(buckets.size()) - 1);
}

double
LogHistogram::fractionAbove(std::uint64_t value) const
{
    if (samples == 0)
        return 0.0;
    // Bucket 0 holds both 0 and 1, so "above 0" cannot be answered
    // from bucket counts alone; the zero tally makes it exact.
    if (value == 0) {
        return static_cast<double>(samples - zeroCount) /
               static_cast<double>(samples);
    }
    // Count whole buckets whose lower bound exceeds value. Exact for
    // bucket-boundary values (2^k - 1, the bucket upper bounds, and
    // 1); conservative (an undercount) in between, since a bucket
    // straddling value is excluded entirely.
    std::uint64_t above = 0;
    for (unsigned b = 0; b < buckets.size(); ++b) {
        const std::uint64_t lower = b == 0 ? 0 : (1ULL << b);
        if (lower > value)
            above += buckets[b];
    }
    return static_cast<double>(above) / static_cast<double>(samples);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    oscar_assert(buckets.size() == other.buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b)
        buckets[b] += other.buckets[b];
    samples += other.samples;
    zeroCount += other.zeroCount;
    sumWraps += other.sumWraps;
    accumulate(other.valueSum);
}

void
LogHistogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    samples = 0;
    zeroCount = 0;
    valueSum = 0;
    sumWraps = 0;
}

std::string
LogHistogram::toString() const
{
    std::string out;
    char line[128];
    for (unsigned b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        const std::uint64_t lower = b == 0 ? 0 : (1ULL << b);
        const std::uint64_t upper = bucketUpperBound(b);
        std::snprintf(line, sizeof(line), "[%8llu, %8llu] %llu\n",
                      static_cast<unsigned long long>(lower),
                      static_cast<unsigned long long>(upper),
                      static_cast<unsigned long long>(buckets[b]));
        out += line;
    }
    return out;
}

// ---------------------------------------------------------------------
// LatencyHistogram

LatencyHistogram::LatencyHistogram(unsigned sub_bucket_bits)
    : bits(sub_bucket_bits)
{
    oscar_assert(sub_bucket_bits >= 1 && sub_bucket_bits <= 16);
    // One linear region of 2^bits unit slots for values below 2^bits,
    // then 2^bits sub-buckets per power-of-two range [2^t, 2^(t+1))
    // for t = bits..63 — every uint64 value has a slot.
    const std::size_t m = std::size_t{1} << bits;
    slots.assign(m * (64 - bits + 1), 0);
}

std::size_t
LatencyHistogram::slotFor(std::uint64_t value) const
{
    const std::uint64_t m = std::uint64_t{1} << bits;
    if (value < m)
        return static_cast<std::size_t>(value);
    const unsigned top =
        63u - static_cast<unsigned>(__builtin_clzll(value));
    const unsigned group = top - bits; // 0-based; sub-bucket width 2^group
    const std::uint64_t offset = (value - (std::uint64_t{1} << top))
                                 >> group;
    return static_cast<std::size_t>(m + group * m + offset);
}

std::uint64_t
LatencyHistogram::slotUpperBound(std::size_t slot) const
{
    const std::uint64_t m = std::uint64_t{1} << bits;
    if (slot < m)
        return slot;
    const std::uint64_t group = (slot - m) >> bits;
    const std::uint64_t offset = (slot - m) & (m - 1);
    const unsigned top = bits + static_cast<unsigned>(group);
    const std::uint64_t width = std::uint64_t{1} << group;
    const std::uint64_t lower =
        (std::uint64_t{1} << top) + offset * width;
    // lower + width can be 2^64 for the topmost slot; add width - 1.
    return lower + (width - 1);
}

void
LatencyHistogram::add(std::uint64_t value)
{
    ++slots[slotFor(value)];
    if (samples == 0) {
        lo = value;
        hi = value;
    } else {
        lo = std::min(lo, value);
        hi = std::max(hi, value);
    }
    ++samples;
    valueSum += value;
    if (valueSum < value)
        ++sumWraps;
}

double
LatencyHistogram::mean() const
{
    if (samples == 0)
        return 0.0;
    if (sumWraps == 0)
        return static_cast<double>(valueSum) /
               static_cast<double>(samples);
    const long double sum =
        static_cast<long double>(sumWraps) * 0x1.0p64L +
        static_cast<long double>(valueSum);
    return static_cast<double>(sum / static_cast<long double>(samples));
}

std::uint64_t
LatencyHistogram::quantile(double q) const
{
    oscar_assert(q >= 0.0 && q <= 1.0);
    if (samples == 0)
        return 0;
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(samples));
    target = std::min(target, samples - 1);
    std::uint64_t seen = 0;
    for (std::size_t s = 0; s < slots.size(); ++s) {
        seen += slots[s];
        if (seen > target)
            return std::min(slotUpperBound(s), hi);
    }
    return hi; // unreachable: every sample lands in some slot
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    oscar_assert(bits == other.bits);
    if (other.samples == 0)
        return;
    for (std::size_t s = 0; s < slots.size(); ++s)
        slots[s] += other.slots[s];
    lo = samples == 0 ? other.lo : std::min(lo, other.lo);
    hi = samples == 0 ? other.hi : std::max(hi, other.hi);
    samples += other.samples;
    sumWraps += other.sumWraps;
    valueSum += other.valueSum;
    if (valueSum < other.valueSum)
        ++sumWraps;
}

void
LatencyHistogram::reset()
{
    std::fill(slots.begin(), slots.end(), 0);
    samples = 0;
    lo = 0;
    hi = 0;
    valueSum = 0;
    sumWraps = 0;
}

std::string
LatencyHistogram::toString() const
{
    if (samples == 0)
        return "";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu min=%llu mean=%.1f p50=%llu p95=%llu "
                  "p99=%llu p999=%llu max=%llu",
                  static_cast<unsigned long long>(samples),
                  static_cast<unsigned long long>(min()), mean(),
                  static_cast<unsigned long long>(quantile(0.50)),
                  static_cast<unsigned long long>(quantile(0.95)),
                  static_cast<unsigned long long>(quantile(0.99)),
                  static_cast<unsigned long long>(quantile(0.999)),
                  static_cast<unsigned long long>(max()));
    return buf;
}

std::string
formatPercent(double fraction, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

std::string
formatCount(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    int pos = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (pos != 0 && pos % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++pos;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

} // namespace oscar
