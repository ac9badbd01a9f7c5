/**
 * @file
 * Implementation of `oscar.spans.v1` serialization.
 */

#include "system/span_capture.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace oscar
{

std::string
spansMetaJson(const SpanResults &results, const SystemConfig &config)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kSpansSchema);
    w.field("spans", results.spansRecorded);
    w.field("exemplar_capacity",
            static_cast<std::uint64_t>(results.exemplarCapacity));
    w.key("config");
    w.beginObject();
    writeConfigIdentity(w, config);
    w.endObject();
    w.key("phases");
    w.beginArray();
    for (std::size_t p = 0; p < kNumSpanPhases; ++p)
        w.value(spanPhaseName(static_cast<SpanPhase>(p)));
    w.endArray();
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

std::string
spanPhaseJson(const char *name, const LatencyHistogram &histogram)
{
    JsonWriter w;
    w.beginObject();
    w.field("phase", name);
    w.field("count", histogram.count());
    w.field("sum", histogram.sum());
    w.field("mean", histogram.mean());
    w.field("min", histogram.min());
    w.field("max", histogram.max());
    w.field("p50", histogram.quantile(0.50));
    w.field("p95", histogram.quantile(0.95));
    w.field("p99", histogram.quantile(0.99));
    w.field("p999", histogram.quantile(0.999));
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

std::string
spanExemplarJson(const RequestSpan &span)
{
    JsonWriter w;
    w.beginObject();
    w.field("span", span.requestId);
    w.field("tn", span.tenant);
    w.field("t", span.thread);
    w.field("segs_n", span.segments);
    w.field("seed", span.seed);
    w.field("issued", span.issued);
    w.field("started", span.started);
    w.field("completed", span.completed);
    w.field("lat", span.latency());
    w.key("segs");
    w.beginArray();
    for (const SpanSegment &seg : span.segs) {
        w.beginObject();
        w.field("ph", spanPhaseName(seg.phase));
        w.field("start", seg.start);
        w.field("cy", seg.cycles);
        if (seg.service != kNoSpanService)
            w.field("sv", static_cast<unsigned>(seg.service));
        if (seg.queue != kNoSpanQueue)
            w.field("q", seg.queue);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

std::string
spansDocument(const SpanResults &results, const SystemConfig &config)
{
    std::string out = spansMetaJson(results, config);
    out += '\n';
    out += spanPhaseJson("total", results.total);
    out += '\n';
    for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
        out += spanPhaseJson(spanPhaseName(static_cast<SpanPhase>(p)),
                             results.phase[p]);
        out += '\n';
    }
    for (const RequestSpan &span : results.exemplars) {
        out += spanExemplarJson(span);
        out += '\n';
    }
    return out;
}

bool
writeSpansFile(const SpanResults &results, const SystemConfig &config,
               const std::string &path)
{
    return writeArtifactFile(path, spansDocument(results, config), "spans");
}

} // namespace oscar
