/**
 * @file
 * Implementation of the statistics helpers.
 */

#include "sim/stats.hh"

#include <algorithm>
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
        lo = x;
        hi = x;
        return;
    }
    m += (x - m) / static_cast<double>(n);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
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

// ---------------------------------------------------------------------
// LatencyHistogram

namespace
{

constexpr unsigned kBits = LatencyHistogram::kSubBucketBits;

} // namespace

std::size_t
LatencyHistogram::slotFor(std::uint64_t value) const
{
    const std::uint64_t m = std::uint64_t{1} << kBits;
    if (value < m)
        return static_cast<std::size_t>(value);
    const unsigned top =
        63u - static_cast<unsigned>(__builtin_clzll(value));
    const unsigned group = top - kBits; // 0-based; sub-bucket width 2^group
    const std::uint64_t offset = (value - (std::uint64_t{1} << top))
                                 >> group;
    return static_cast<std::size_t>(m + group * m + offset);
}

std::uint64_t
LatencyHistogram::slotUpperBound(std::size_t slot) const
{
    const std::uint64_t m = std::uint64_t{1} << kBits;
    if (slot < m)
        return slot;
    const std::uint64_t group = (slot - m) >> kBits;
    const std::uint64_t offset = (slot - m) & (m - 1);
    const unsigned top = kBits + static_cast<unsigned>(group);
    const std::uint64_t width = std::uint64_t{1} << group;
    const std::uint64_t lower =
        (std::uint64_t{1} << top) + offset * width;
    // lower + width can be 2^64 for the topmost slot; add width - 1.
    return lower + (width - 1);
}

void
LatencyHistogram::add(std::uint64_t value)
{
    if (slots.empty()) [[unlikely]]
        allocate();
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
    if (other.samples == 0)
        return;
    if (slots.empty())
        allocate();
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
LatencyHistogram::allocate()
{
    // One linear region of 2^kBits unit slots for values below 2^kBits,
    // then 2^kBits sub-buckets per power-of-two range [2^t, 2^(t+1))
    // for t = kBits..63 — every uint64 value has a slot.
    const std::size_t m = std::size_t{1} << kBits;
    slots.assign(m * (64 - kBits + 1), 0);
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
