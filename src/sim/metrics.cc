#include "sim/metrics.hh"

#include "sim/logging.hh"

namespace oscar
{

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
    }
    oscar_panic("unknown MetricKind %d", static_cast<int>(kind));
}

MetricRegistry::MetricRegistry(std::uint64_t sample_every)
    : interval(sample_every)
{
}

void
MetricRegistry::addSeries(std::string name, MetricKind kind,
                          std::function<double()> reader)
{
    if (name.empty())
        oscar_fatal("metric name must not be empty");
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '.' || c == '_';
        if (!ok) {
            oscar_fatal("metric name '%s' has invalid character '%c'",
                        name.c_str(), c);
        }
    }
    if (seriesIndex(name) >= 0)
        oscar_fatal("duplicate metric name '%s'", name.c_str());
    if (!rows.empty()) {
        oscar_fatal("cannot register metric '%s' after sampling started",
                    name.c_str());
    }
    columns.push_back(Series{std::move(name), kind});
    readers.push_back(std::move(reader));
}

void
MetricRegistry::counterFn(const std::string &name,
                          std::function<std::uint64_t()> poll)
{
    addSeries(name, MetricKind::Counter,
              [poll = std::move(poll)] {
                  return static_cast<double>(poll());
              });
}

void
MetricRegistry::gauge(const std::string &name, std::function<double()> poll)
{
    addSeries(name, MetricKind::Gauge, std::move(poll));
}

void
MetricRegistry::histogramFn(const std::string &name,
                            const LatencyHistogram &hist)
{
    // The histogram restarts at measurement start, so its count is a
    // gauge too.
    const LatencyHistogram *h = &hist;
    addSeries(name + ".count", MetricKind::Gauge,
              [h] { return static_cast<double>(h->count()); });
    addSeries(name + ".mean", MetricKind::Gauge, [h] { return h->mean(); });
    addSeries(name + ".p50", MetricKind::Gauge,
              [h] { return static_cast<double>(h->quantile(0.5)); });
    addSeries(name + ".p99", MetricKind::Gauge,
              [h] { return static_cast<double>(h->quantile(0.99)); });
}

std::ptrdiff_t
MetricRegistry::seriesIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i].name == name)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

std::vector<double>
MetricRegistry::readSeries() const
{
    std::vector<double> values;
    values.reserve(readers.size());
    for (const auto &reader : readers)
        values.push_back(reader());
    return values;
}

void
MetricRegistry::freeze()
{
    const std::vector<double> values = readSeries();
    for (std::size_t i = 0; i < readers.size(); ++i)
        readers[i] = [value = values[i]] { return value; };
}

double
MetricRegistry::seriesValue(const std::string &name) const
{
    const std::ptrdiff_t idx = seriesIndex(name);
    if (idx < 0)
        oscar_fatal("unknown metric series '%s'", name.c_str());
    return readers[static_cast<std::size_t>(idx)]();
}

std::size_t
MetricRegistry::takeSample(std::uint64_t instant, Cycle cycle,
                           bool refresh_equal)
{
    if (!rows.empty()) {
        Sample &last = rows.back();
        if (instant < last.instant) {
            oscar_panic("metric sample instants must be monotone "
                        "(%llu after %llu)",
                        static_cast<unsigned long long>(instant),
                        static_cast<unsigned long long>(last.instant));
        }
        // A forced sample (measurement entry, end of run) can land on
        // the same instant as a periodic one; keep instants strictly
        // monotone in the export by reusing the row, re-reading it
        // when the caller knows values may have moved since.
        if (instant == last.instant) {
            if (refresh_equal) {
                last.cycle = cycle;
                last.values = readSeries();
            }
            return rows.size() - 1;
        }
    }
    Sample sample;
    sample.instant = instant;
    sample.cycle = cycle;
    sample.values = readSeries();
    rows.push_back(std::move(sample));
    return rows.size() - 1;
}

void
MetricRegistry::setMeasurementStartSample(std::size_t index)
{
    oscar_assert(index < rows.size());
    measureRow = index;
}

} // namespace oscar
