/**
 * @file
 * Discrete-event scheduling kernel.
 *
 * The system model advances cores and the OS core through a single
 * global event queue keyed by cycle. Ties are broken by insertion
 * order, so simulation is fully deterministic.
 *
 * Every event is plain data ({kind, a, b}) dispatched through one
 * handler installed with setPayloadHandler(). The queue is a binary
 * heap of {when, seq, payload} entries ordered by (when, seq): memory
 * is bounded by the peak number of simultaneously pending events, and
 * scheduling or firing an event allocates only when the heap grows
 * past its previous peak. Because entries are trivially copyable, a
 * queue copies member-wise — the warm-state snapshot/fork machinery
 * relies on this — except for the handler, which the copy's owner
 * installs.
 */

#ifndef OSCAR_SIM_EVENT_QUEUE_HH_
#define OSCAR_SIM_EVENT_QUEUE_HH_

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/types.hh"

namespace oscar
{

/**
 * Plain-data event: a discriminator plus two operand words. The
 * meaning of kind/a/b is private to the component that installed the
 * payload handler (System encodes its event vocabulary here).
 */
struct EventPayload
{
    std::uint32_t kind = 0;
    std::uint32_t a = 0;
    std::uint64_t b = 0;
};

/** Dispatcher for payload events; ctx is the installer's context. */
using PayloadHandler = void (*)(void *ctx, const EventPayload &payload,
                                Cycle now);

/**
 * Min-heap of (cycle, sequence) ordered payload events.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /**
     * Snapshot copy of the pending events, clock and counters. The
     * payload handler and its context are deliberately NOT copied —
     * the clone's owner must install its own with setPayloadHandler()
     * before running.
     */
    EventQueue(const EventQueue &other);

    EventQueue(EventQueue &&) = default;
    EventQueue &operator=(const EventQueue &) = delete;
    EventQueue &operator=(EventQueue &&) = default;

    /**
     * Install the dispatcher for payload events. One handler serves
     * the whole queue; the context pointer is passed back verbatim.
     * Must be set before the first event fires.
     */
    void
    setPayloadHandler(PayloadHandler handler, void *ctx)
    {
        payloadHandler = handler;
        payloadCtx = ctx;
    }

    /**
     * Schedule a payload event at an absolute cycle. Events at the
     * same cycle fire in the order they were scheduled.
     *
     * @param when Absolute cycle; must be >= now().
     * @param payload Dispatched to the installed handler when firing.
     */
    void schedulePayload(Cycle when, const EventPayload &payload);

    /** Fire the earliest pending event; advances now(). */
    void runOne();

    /** Run until the queue is empty or now() would exceed the limit. */
    void runUntil(Cycle limit);

    /** True when no events are pending. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t pendingCount() const { return heap.size(); }

    /** Current simulated cycle. */
    Cycle now() const { return currentCycle; }

    /** Cycle of the earliest pending event, or kNoCycle when empty. */
    Cycle
    nextEventCycle() const
    {
        return heap.empty() ? kNoCycle : heap.top().when;
    }

    /** Total events ever fired (for stats/tests). */
    std::uint64_t firedCount() const { return fired; }

    /** Total events ever scheduled. */
    std::uint64_t scheduledCount() const { return nextSeq; }

    /** Peak number of simultaneously pending events; bounds memory. */
    std::size_t slotCount() const { return peakPending; }

  private:
    struct Entry
    {
        Cycle when;
        /** Schedule order; breaks ties between same-cycle events. */
        std::uint64_t seq;
        EventPayload payload;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    Cycle currentCycle = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
    std::size_t peakPending = 0;
    PayloadHandler payloadHandler = nullptr;
    void *payloadCtx = nullptr;
};

} // namespace oscar

#endif // OSCAR_SIM_EVENT_QUEUE_HH_
