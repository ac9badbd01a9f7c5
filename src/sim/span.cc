/**
 * @file
 * Span recorder implementation. See span.hh for the model.
 */

#include "sim/span.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

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

void
SpanRecorder::begin(std::uint32_t tid, std::uint64_t request_id,
                    std::uint32_t tenant, std::uint32_t segments,
                    Cycle issued, Cycle now)
{
    oscar_assert(tid < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[tid];
    slot.active = true;
    slot.pendingSteal = 0;
    // Every field is set here, and the segment vector keeps its
    // capacity from one request to the next.
    slot.span.segs.clear();
    slot.span.completed = 0;
    slot.span.requestId = request_id;
    slot.span.tenant = tenant;
    slot.span.thread = tid;
    slot.span.segments = segments;
    slot.span.seed = runSeed;
    slot.span.issued = issued;
    slot.span.started = now;
    // The dispatch-wait segment is recorded even when zero so every
    // span's first segment anchors at the issue instant.
    SpanSegment seg;
    seg.phase = SpanPhase::DispatchWait;
    seg.start = issued;
    seg.cycles = now - issued;
    slot.span.segs.push_back(seg);
}

void
SpanRecorder::segment(std::uint32_t tid, SpanPhase phase, Cycle start,
                      Cycle cycles, std::uint16_t service,
                      std::uint32_t queue)
{
    oscar_assert(tid < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[tid];
    // A segment for a request that began before a reset() is dropped:
    // the span will never be completed into the aggregates either.
    if (!slot.active || cycles == 0)
        return;
    SpanSegment seg;
    seg.phase = phase;
    seg.start = start;
    seg.cycles = cycles;
    seg.service = service;
    seg.queue = queue;
    slot.span.segs.push_back(seg);
}

void
SpanRecorder::stealTransfer(std::uint32_t tid, Cycle now, Cycle transfer,
                            std::uint32_t thief_queue)
{
    oscar_assert(tid < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[tid];
    if (!slot.active)
        return;
    segment(tid, SpanPhase::Steal, now, transfer, kNoSpanService,
            thief_queue);
    // The wait the System reports at dispatch spans arrival to start
    // and therefore includes this transfer; remember it so queueWait()
    // can carve it out.
    slot.pendingSteal += transfer;
}

void
SpanRecorder::queueWait(std::uint32_t tid, Cycle start, Cycle waited,
                        std::uint32_t queue)
{
    oscar_assert(tid < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[tid];
    if (!slot.active)
        return;
    oscar_assert(slot.pendingSteal <= waited);
    segment(tid, SpanPhase::OsQueueWait, start - waited,
            waited - slot.pendingSteal, kNoSpanService, queue);
    slot.pendingSteal = 0;
}

void
SpanRecorder::complete(std::uint32_t tid, Cycle now, bool measuring)
{
    oscar_assert(tid < threads.size() && "span recorder not bound");
    ActiveSpan &slot = threads[tid];
    if (!slot.active)
        return;
    slot.active = false;
    if (!measuring)
        return;
    RequestSpan &span = slot.span;
    span.completed = now;
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
