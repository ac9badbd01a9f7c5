/**
 * @file
 * Implementation of the discrete-event kernel.
 */

#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace oscar
{

EventQueue::EventQueue(const EventQueue &other)
    : heap(other.heap), currentCycle(other.currentCycle),
      nextSeq(other.nextSeq), fired(other.fired),
      peakPending(other.peakPending)
{
}

void
EventQueue::schedulePayload(Cycle when, const EventPayload &payload)
{
    oscar_assert(when >= currentCycle);
    heap.push(Entry{when, nextSeq++, payload});
    peakPending = std::max(peakPending, heap.size());
}

void
EventQueue::runOne()
{
    oscar_assert(!heap.empty());
    oscar_assert(payloadHandler != nullptr);
    // Copy the entry out before popping: the handler may schedule.
    const Entry entry = heap.top();
    heap.pop();
    currentCycle = entry.when;
    ++fired;
    payloadHandler(payloadCtx, entry.payload, entry.when);
}

void
EventQueue::runUntil(Cycle limit)
{
    while (!heap.empty() && heap.top().when <= limit)
        runOne();
}

} // namespace oscar
