/**
 * @file
 * Shared helpers of the oscar benchmark program: host-time clocks,
 * order statistics, and the in-memory span tracer of the traced run.
 */

#ifndef OSCARBENCH_COMMON_HH_
#define OSCARBENCH_COMMON_HH_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace oscarbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** 64-bit FNV-1a, folded incrementally over result documents. */
inline std::uint64_t
fnv1a(const std::string &text, std::uint64_t hash = 1469598103934665603ULL)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

/**
 * In-memory span recorder for the traced run. Every call the benchmark
 * makes into a layer is bracketed by a span (name, start, end, parent,
 * units of work done inside it). Spans are kept in memory and written
 * out once, when the benchmark ends, so recording costs one locked
 * vector append per span.
 */
class Tracer
{
  public:
    /** Id of "no parent". */
    static constexpr std::uint64_t kRoot = 0;

    struct Record
    {
        std::uint64_t id = 0;
        std::uint64_t parent = kRoot;
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        /** Units of work inside the span (instructions, refs, ...). */
        double work = 0.0;
    };

    /** Per-name durations over a subtree of spans. */
    struct Totals
    {
        double ns = 0.0;
        std::vector<double> durationsNs;
    };

    Tracer() : origin(Clock::now()) {}

    /** Open a span; returns its id. */
    std::uint64_t
    open(const std::string &name, std::uint64_t parent)
    {
        const std::int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mutex);
        Record rec;
        rec.id = records.size() + 1;
        rec.parent = parent;
        rec.name = name;
        rec.startNs = now;
        records.push_back(std::move(rec));
        return records.back().id;
    }

    /** Close a span, attributing `work` units to it. */
    void
    close(std::uint64_t id, double work = 0.0)
    {
        const std::int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mutex);
        Record &rec = records[id - 1];
        rec.endNs = now;
        rec.work = work;
    }

    /** Totals by span name over `root` and all its descendants. */
    std::map<std::string, Totals> totalsUnder(std::uint64_t root) const;

    /** Write every span as one JSON line; false on I/O error. */
    bool writeJsonl(const std::string &path,
                    const std::string &header_json) const;

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin)
            .count();
    }

    Clock::time_point origin;
    mutable std::mutex mutex;
    std::vector<Record> records;
};

/** RAII span; a null tracer records nothing. */
class Span
{
  public:
    Span(Tracer *tracer, const std::string &name, std::uint64_t parent)
        : tracer(tracer), spanId(tracer ? tracer->open(name, parent) : 0)
    {}

    ~Span()
    {
        if (tracer != nullptr)
            tracer->close(spanId, work);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** The span's id, for children. */
    std::uint64_t id() const { return spanId; }

    /** Units of work attributed to this span when it closes. */
    double work = 0.0;

  private:
    Tracer *tracer;
    std::uint64_t spanId;
};

} // namespace oscarbench

#endif // OSCARBENCH_COMMON_HH_
