/**
 * @file
 * Span recorder implementation. See span.hh for the model.
 */

#include "sim/span.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace oscar
{

const char *
spanPhaseName(SpanPhase phase)
{
    switch (phase) {
    case SpanPhase::DispatchWait:
        return "dispatch_wait";
    case SpanPhase::User:
        return "user";
    case SpanPhase::Decision:
        return "decision";
    case SpanPhase::OsInline:
        return "os_inline";
    case SpanPhase::MigrationOut:
        return "migration_out";
    case SpanPhase::Spill:
        return "spill";
    case SpanPhase::OsQueueWait:
        return "os_queue";
    case SpanPhase::Steal:
        return "steal";
    case SpanPhase::OsExec:
        return "os_exec";
    case SpanPhase::MigrationBack:
        return "migration_back";
    case SpanPhase::kCount:
        break;
    }
    oscar_assert(false && "unknown span phase");
    return "?";
}

Cycle
RequestSpan::phaseTotal(SpanPhase phase) const
{
    Cycle total = 0;
    for (const SpanSegment &seg : segs) {
        if (seg.phase == phase)
            total += seg.cycles;
    }
    return total;
}

bool
spanSlower(const RequestSpan &a, const RequestSpan &b)
{
    if (a.latency() != b.latency())
        return a.latency() > b.latency();
    if (a.seed != b.seed)
        return a.seed < b.seed;
    return a.requestId < b.requestId;
}

void
SpanResults::merge(const SpanResults &other)
{
    spansRecorded += other.spansRecorded;
    total.merge(other.total);
    for (std::size_t p = 0; p < kNumSpanPhases; ++p)
        phase[p].merge(other.phase[p]);
    exemplarCapacity = std::max(exemplarCapacity, other.exemplarCapacity);
    exemplars.insert(exemplars.end(), other.exemplars.begin(),
                     other.exemplars.end());
    std::sort(exemplars.begin(), exemplars.end(), spanSlower);
    if (exemplars.size() > exemplarCapacity)
        exemplars.resize(exemplarCapacity);
}

SpanRecorder::SpanRecorder(std::size_t exemplar_capacity)
{
    aggregates.exemplarCapacity = exemplar_capacity;
}

void
SpanRecorder::bind(std::size_t thread_count, std::uint64_t run_seed)
{
    threads.assign(thread_count, ActiveSpan{});
    runSeed = run_seed;
}

// A segment takes its service and queue from the record as they are.
static_assert(kNoSpanService == kNoTraceService &&
              kNoSpanQueue == kNoTraceQueue);

void
SpanRecorder::record(const TraceEvent &event)
{
    // A segment is [cycle, cycle + latency) on the record's service
    // and queue unless its kind says otherwise.
    SpanSegment seg{SpanPhase::kCount, event.cycle, event.latency,
                    event.service, event.queue};
    switch (event.kind) {
      case TraceEventKind::RequestStart:
        openSpan(event);
        return;
      case TraceEventKind::RequestEnd:
        closeSpan(event);
        return;
      case TraceEventKind::UserBurst:
        seg.phase = SpanPhase::User;
        seg.cycles = event.cycles;
        break;
      case TraceEventKind::Decision:
        seg.phase = SpanPhase::Decision;
        break;
      case TraceEventKind::InvocationEnd:
        // An off-load's segments were recorded on its way.
        if (event.offload)
            return;
        seg.phase = SpanPhase::OsInline;
        seg.start = event.start;
        seg.cycles = event.cycles;
        break;
      case TraceEventKind::Migration:
        seg.phase = event.toOs ? SpanPhase::MigrationOut
                               : SpanPhase::MigrationBack;
        seg.start = event.toOs ? event.start : event.cycle;
        break;
      case TraceEventKind::Spill:
        seg.phase = SpanPhase::Spill;
        break;
      case TraceEventKind::Steal:
        seg.phase = SpanPhase::Steal;
        break;
      case TraceEventKind::OsQueueWait:
        seg.phase = SpanPhase::OsQueueWait;
        seg.start -= event.latency;
        break;
      case TraceEventKind::OsExec:
        seg.phase = SpanPhase::OsExec;
        seg.cycles = event.cycles;
        break;
      default:
        return;
    }
    oscar_assert(event.thread < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[event.thread];
    // A segment for a request that began before a reset() is dropped:
    // the span will never be completed into the aggregates either.
    if (!slot.active)
        return;
    // The wait an OsQueueWait reports spans arrival to service start,
    // so it includes any steal transfer since; carve that out.
    if (seg.phase == SpanPhase::Steal) {
        slot.pendingSteal += seg.cycles;
    } else if (seg.phase == SpanPhase::OsQueueWait) {
        oscar_assert(slot.pendingSteal <= seg.cycles);
        seg.cycles -= slot.pendingSteal;
        slot.pendingSteal = 0;
    }
    if (seg.cycles != 0)
        slot.span.segs.push_back(seg);
}

void
SpanRecorder::openSpan(const TraceEvent &event)
{
    oscar_assert(event.thread < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[event.thread];
    slot.active = true;
    slot.pendingSteal = 0;
    // Every field is set here, and the segment vector keeps its
    // capacity from one request to the next.
    slot.span.segs.clear();
    slot.span.completed = 0;
    slot.span.requestId = event.requestId;
    slot.span.tenant = event.tenant;
    slot.span.thread = event.thread;
    slot.span.segments = static_cast<std::uint32_t>(event.actual);
    slot.span.seed = runSeed;
    slot.span.issued = event.cycle - event.latency;
    slot.span.started = event.cycle;
    // The dispatch-wait segment is recorded even when zero so every
    // span's first segment anchors at the issue instant.
    SpanSegment seg;
    seg.phase = SpanPhase::DispatchWait;
    seg.start = slot.span.issued;
    seg.cycles = event.latency;
    slot.span.segs.push_back(seg);
}

void
SpanRecorder::closeSpan(const TraceEvent &event)
{
    oscar_assert(event.thread < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[event.thread];
    if (!slot.active)
        return;
    slot.active = false;
    if (!event.measuring)
        return;
    RequestSpan &span = slot.span;
    span.completed = event.cycle;
    // Segments are recorded in event order; steal transfers land
    // before the queue wait they interrupt, so restore timeline order.
    // Few spans are out of order, and stable_sort allocates.
    const auto earlier = [](const SpanSegment &a, const SpanSegment &b) {
        return a.start < b.start;
    };
    if (!std::is_sorted(span.segs.begin(), span.segs.end(), earlier))
        std::stable_sort(span.segs.begin(), span.segs.end(), earlier);
    aggregates.total.add(span.latency());
    std::array<Cycle, kNumSpanPhases> totals{};
    for (const SpanSegment &seg : span.segs)
        totals[static_cast<std::size_t>(seg.phase)] += seg.cycles;
    for (std::size_t p = 0; p < kNumSpanPhases; ++p)
        aggregates.phase[p].add(totals[p]);
    ++aggregates.spansRecorded;
    if (aggregates.exemplarCapacity == 0)
        return;
    if (aggregates.exemplars.size() < aggregates.exemplarCapacity ||
        spanSlower(span, aggregates.exemplars.back())) {
        aggregates.exemplars.push_back(std::move(span));
        std::sort(aggregates.exemplars.begin(), aggregates.exemplars.end(),
                  spanSlower);
        if (aggregates.exemplars.size() > aggregates.exemplarCapacity)
            aggregates.exemplars.resize(aggregates.exemplarCapacity);
    }
}

void
SpanRecorder::reset()
{
    for (ActiveSpan &slot : threads) {
        slot.active = false;
        slot.pendingSteal = 0;
        slot.span.segs.clear();
    }
    SpanResults fresh;
    fresh.exemplarCapacity = aggregates.exemplarCapacity;
    aggregates = std::move(fresh);
}

} // namespace oscar
