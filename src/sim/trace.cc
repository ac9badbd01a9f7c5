/**
 * @file
 * Implementation of the trace recorder.
 */

#include "sim/trace.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace oscar
{

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::InvocationBegin: return "begin";
      case TraceEventKind::PredictorLookup: return "lookup";
      case TraceEventKind::Decision: return "decision";
      case TraceEventKind::Migration: return "migrate";
      case TraceEventKind::QueueEnter: return "qenter";
      case TraceEventKind::QueueExit: return "qexit";
      case TraceEventKind::InvocationEnd: return "end";
      case TraceEventKind::EpochEnd: return "epoch";
      case TraceEventKind::ThresholdChange: return "nswitch";
      case TraceEventKind::MeasurementStart: return "measure";
      case TraceEventKind::RequestStart: return "reqstart";
      case TraceEventKind::RequestEnd: return "reqend";
      case TraceEventKind::Steal: return "steal";
      case TraceEventKind::Spill: return "spill";
      case TraceEventKind::UserBurst: return "user";
      case TraceEventKind::OsQueueWait: return "osqueue";
      case TraceEventKind::OsExec: return "osexec";
    }
    oscar_panic("unknown trace event kind %u",
                static_cast<unsigned>(kind));
}

namespace
{

/** AState hashes are emitted as hex strings: lossless at 64 bits and
 *  greppable, where a JSON number would exceed 2^53. */
std::string
hexValue(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

std::string
traceEventJson(const TraceEvent &event)
{
    JsonWriter w;
    w.beginObject();
    w.field("k", traceEventKindName(event.kind));
    w.field("cy", event.cycle);
    if (event.thread != kNoTraceThread)
        w.field("t", event.thread);
    if (event.service != kNoTraceService)
        w.field("sv", static_cast<unsigned>(event.service));

    switch (event.kind) {
      case TraceEventKind::InvocationBegin:
        w.field("as", hexValue(event.astate));
        w.field("len", event.actual);
        break;
      case TraceEventKind::PredictorLookup:
        w.field("as", hexValue(event.astate));
        w.field("pr", event.predicted);
        w.field("cf", static_cast<unsigned>(event.confidence));
        w.field("gl", event.fromGlobal);
        w.field("hit", event.tableHit);
        w.field("n", event.threshold);
        break;
      case TraceEventKind::Decision:
        w.field("off", event.offload);
        w.field("cost", event.latency);
        w.field("pr", event.predicted);
        w.field("pu", event.predictorUsed);
        break;
      case TraceEventKind::Migration:
        w.field("dir", event.toOs ? "os" : "user");
        w.field("lat", event.latency);
        if (event.queue != kNoTraceQueue)
            w.field("q", event.queue);
        break;
      case TraceEventKind::QueueEnter:
        w.field("d", event.depth);
        if (event.queue != kNoTraceQueue)
            w.field("q", event.queue);
        break;
      case TraceEventKind::QueueExit:
        w.field("wait", event.latency);
        if (event.queue != kNoTraceQueue)
            w.field("q", event.queue);
        break;
      case TraceEventKind::InvocationEnd:
        w.field("len", event.actual);
        w.field("off", event.offload);
        break;
      case TraceEventKind::EpochEnd:
        w.field("i", event.instruction);
        w.field("n", event.threshold);
        w.field("fb", event.feedback);
        break;
      case TraceEventKind::ThresholdChange:
        w.field("n0", event.thresholdBefore);
        w.field("n", event.threshold);
        w.field("round", event.depth);
        break;
      case TraceEventKind::MeasurementStart:
        w.field("i", event.instruction);
        w.field("fb", event.feedback);
        break;
      case TraceEventKind::RequestStart:
        w.field("id", event.requestId);
        w.field("tn", event.tenant);
        w.field("segs", event.actual);
        w.field("wait", event.latency);
        if (event.queue != kNoTraceQueue)
            w.field("q", event.queue);
        break;
      case TraceEventKind::RequestEnd:
        w.field("id", event.requestId);
        w.field("tn", event.tenant);
        w.field("lat", event.latency);
        if (event.queue != kNoTraceQueue)
            w.field("q", event.queue);
        break;
      case TraceEventKind::Steal:
        w.field("from", event.queueFrom);
        w.field("q", event.queue);
        w.field("lat", event.latency);
        break;
      case TraceEventKind::Spill:
        w.field("from", event.queueFrom);
        w.field("q", event.queue);
        w.field("d", event.depth);
        w.field("lat", event.latency);
        break;
      case TraceEventKind::UserBurst:
      case TraceEventKind::OsQueueWait:
      case TraceEventKind::OsExec:
        oscar_panic("span-only event kind %s has no trace line",
                    traceEventKindName(event.kind));
    }
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

// ---------------------------------------------------------------------
// MemoryTraceSink

void
MemoryTraceSink::record(const TraceEvent &event)
{
    recorded.push_back(event);
}

std::vector<std::string>
MemoryTraceSink::lines() const
{
    std::vector<std::string> out;
    out.reserve(recorded.size());
    for (const TraceEvent &event : recorded)
        out.push_back(traceEventJson(event));
    return out;
}

// ---------------------------------------------------------------------
// JsonlTraceSink

JsonlTraceSink::JsonlTraceSink(const std::string &path,
                               const std::string &header_line)
    : out(path)
{
    if (!out.ok())
        return;
    buffer.reserve(kBufferBytes + 512);
    if (!header_line.empty()) {
        buffer += header_line;
        buffer += '\n';
    }
}

void
JsonlTraceSink::flush()
{
    out.write(buffer);
    buffer.clear();
}

void
JsonlTraceSink::record(const TraceEvent &event)
{
    if (!out.ok())
        return;
    buffer += traceEventJson(event);
    buffer += '\n';
    if (buffer.size() >= kBufferBytes)
        flush();
}

} // namespace oscar
