/**
 * @file
 * Implementation of `oscar.metrics.v1` serialization.
 */

#include "system/metrics_capture.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace oscar
{

namespace
{

/** Counter columns carry exact uint64 values; emit them as integers. */
void
writeValue(JsonWriter &w, MetricKind kind, double value)
{
    if (kind == MetricKind::Counter)
        w.value(static_cast<std::uint64_t>(value));
    else
        w.value(value);
}

/** One sample row with cumulative and since-previous-row values. */
std::string
rowJson(const MetricRegistry &registry, std::size_t index)
{
    const auto &rows = registry.samples();
    const auto &series = registry.series();
    const MetricRegistry::Sample &row = rows[index];
    const MetricRegistry::Sample *prev =
        index > 0 ? &rows[index - 1] : nullptr;

    JsonWriter w;
    w.beginObject();
    w.field("sample", static_cast<std::uint64_t>(index));
    w.field("instant", row.instant);
    w.field("cycle", row.cycle);
    w.key("cum");
    w.beginArray();
    for (std::size_t s = 0; s < series.size(); ++s)
        writeValue(w, series[s].kind, row.values[s]);
    w.endArray();
    w.key("delta");
    w.beginArray();
    for (std::size_t s = 0; s < series.size(); ++s) {
        const double before = prev ? prev->values[s] : 0.0;
        writeValue(w, series[s].kind, row.values[s] - before);
    }
    w.endArray();
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

} // namespace

std::string
metricsMetaJson(const MetricRegistry &registry,
                const SystemConfig &config)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kMetricsSchema);
    w.field("sample_every", registry.sampleEvery());
    const std::size_t mark = registry.measurementStartSample();
    w.field("measure_sample",
            mark == MetricRegistry::kNoSample
                ? static_cast<std::int64_t>(-1)
                : static_cast<std::int64_t>(mark));
    w.key("config");
    w.beginObject();
    writeConfigIdentity(w, config);
    writeConfigHorizons(w, config);
    w.endObject();
    w.key("series");
    w.beginArray();
    for (const MetricRegistry::Series &s : registry.series()) {
        w.beginObject();
        w.field("name", s.name);
        w.field("kind", metricKindName(s.kind));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

std::string
metricsDocument(const MetricRegistry &registry,
                const SystemConfig &config)
{
    std::string out = metricsMetaJson(registry, config);
    out += '\n';
    for (std::size_t i = 0; i < registry.samples().size(); ++i) {
        out += rowJson(registry, i);
        out += '\n';
    }
    return out;
}

bool
writeMetricsFile(const MetricRegistry &registry,
                 const SystemConfig &config, const std::string &path)
{
    return writeArtifactFile(path, metricsDocument(registry, config),
                             "metrics");
}

} // namespace oscar
