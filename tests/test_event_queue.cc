/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace oscar
{
namespace
{

/** Payload kind whose handler schedules a follow-up event. */
constexpr std::uint32_t kFollowUp = 1;

/**
 * Payload handler context that records every fired event as (firing
 * cycle, payload.b). A kFollowUp event schedules {0, 0, b + 1} on the
 * same queue payload.a cycles later.
 */
struct Recorder
{
    EventQueue *queue = nullptr;
    std::vector<std::pair<Cycle, std::uint64_t>> fired;

    static void
    handle(void *ctx, const EventPayload &payload, Cycle now)
    {
        auto *self = static_cast<Recorder *>(ctx);
        self->fired.emplace_back(now, payload.b);
        if (payload.kind == kFollowUp)
            self->queue->schedulePayload(now + payload.a,
                                         EventPayload{0, 0, payload.b + 1});
    }

    void
    attach(EventQueue &q)
    {
        queue = &q;
        q.setPayloadHandler(&Recorder::handle, this);
    }

    std::vector<std::uint64_t>
    tags() const
    {
        std::vector<std::uint64_t> out;
        for (const auto &[when, tag] : fired)
            out.push_back(tag);
        return out;
    }
};

EventPayload
tag(std::uint64_t b)
{
    return EventPayload{0, 0, b};
}

TEST(EventQueue, StartsEmptyAtCycleZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.nextEventCycle(), kNoCycle);
    EXPECT_EQ(q.scheduledCount(), 0u);
    EXPECT_EQ(q.slotCount(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(30, tag(3));
    q.schedulePayload(10, tag(1));
    q.schedulePayload(20, tag(2));
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(rec.tags(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesFireInInsertionOrder)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(5, tag(1));
    q.schedulePayload(5, tag(2));
    q.schedulePayload(5, tag(3));
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(rec.tags(), (std::vector<std::uint64_t>{1, 2, 3}));
}

struct Seen
{
    EventPayload payload;
    Cycle now = 0;
};

TEST(EventQueue, CallbackReceivesFiringCycle)
{
    // The handler gets the firing cycle, its context and the payload
    // exactly as scheduled.
    EventQueue q;
    Seen seen;
    q.setPayloadHandler(
        [](void *ctx, const EventPayload &payload, Cycle now) {
            static_cast<Seen *>(ctx)->payload = payload;
            static_cast<Seen *>(ctx)->now = now;
        },
        &seen);
    q.schedulePayload(17, EventPayload{3, 0xABCD, 0x1234'5678'9ABC'DEF0});
    q.runOne();
    EXPECT_EQ(seen.now, 17u);
    EXPECT_EQ(seen.payload.kind, 3u);
    EXPECT_EQ(seen.payload.a, 0xABCDu);
    EXPECT_EQ(seen.payload.b, 0x1234'5678'9ABC'DEF0u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(1, EventPayload{kFollowUp, 1, 0});
    q.runUntil(100);
    EXPECT_EQ(rec.fired.size(), 2u);
    EXPECT_EQ(rec.tags(), (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(10, tag(1));
    q.schedulePayload(20, tag(2));
    q.schedulePayload(30, tag(3));
    q.runUntil(20);
    EXPECT_EQ(rec.fired.size(), 2u);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.nextEventCycle(), 30u);
}

TEST(EventQueue, PendingCountTracksLiveEvents)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(10, tag(1));
    q.schedulePayload(20, tag(2));
    EXPECT_EQ(q.pendingCount(), 2u);
    q.runOne();
    EXPECT_EQ(q.pendingCount(), 1u);
    q.runOne();
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingAtCurrentCycleIsAllowed)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(5, EventPayload{kFollowUp, 0, 0});
    q.runUntil(5);
    EXPECT_EQ(rec.fired.size(), 2u);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, FiredCountAccumulates)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    for (int i = 0; i < 7; ++i)
        q.schedulePayload(i + 1, tag(i));
    q.runUntil(100);
    EXPECT_EQ(q.firedCount(), 7u);
    EXPECT_EQ(q.scheduledCount(), 7u);
}

TEST(EventQueue, FiredEntriesAreReclaimed)
{
    // Storage is bounded by the peak number of simultaneously pending
    // events, not by the event count of a run.
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    for (int batch = 0; batch < 1000; ++batch) {
        q.schedulePayload(q.now() + 1, tag(0));
        q.schedulePayload(q.now() + 2, tag(1));
        q.runOne();
        q.runOne();
    }
    EXPECT_EQ(q.firedCount(), 2000u);
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_EQ(q.slotCount(), 2u); // peak pending
}

TEST(EventQueue, SlotReuseKeepsOrderingAndPendingCountConsistent)
{
    // Interleave schedule and fire, then check that ordering, the
    // pending count and the peak stay consistent.
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(10, tag(1));
    q.schedulePayload(20, tag(2));
    q.runOne();
    // Earlier deadlines than the pending event, later sequence numbers.
    q.schedulePayload(15, tag(3));
    q.schedulePayload(12, tag(4));
    EXPECT_EQ(q.pendingCount(), 3u);
    EXPECT_EQ(q.slotCount(), 3u);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(rec.tags(), (std::vector<std::uint64_t>{1, 4, 3, 2}));
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_EQ(q.slotCount(), 3u);
}

TEST(EventQueue, SnapshotCopyFiresSameSequence)
{
    // A copy carries the pending events, clock and counters but not
    // the handler; once given one, it fires exactly what the original
    // would have, and draining it leaves the original untouched.
    EventQueue original;
    Recorder first;
    first.attach(original);
    for (std::uint64_t i = 0; i < 40; ++i)
        original.schedulePayload(1 + (i * 37) % 25, tag(i));
    // Pending at the snapshot; fires in each queue on its own handler.
    original.schedulePayload(8, EventPayload{kFollowUp, 4, 100});
    original.runUntil(5);

    EventQueue copy(original);
    EXPECT_EQ(copy.now(), original.now());
    EXPECT_EQ(copy.pendingCount(), original.pendingCount());
    EXPECT_EQ(copy.firedCount(), original.firedCount());
    EXPECT_EQ(copy.scheduledCount(), original.scheduledCount());
    EXPECT_EQ(copy.slotCount(), original.slotCount());

    Recorder second;
    second.attach(copy);
    while (!copy.empty())
        copy.runOne();
    // The original still holds its pending events and its handler.
    EXPECT_EQ(original.pendingCount(), 41u - first.fired.size());
    EXPECT_EQ(original.now(), 5u);
    const std::size_t already = first.fired.size();
    while (!original.empty())
        original.runOne();
    const std::vector<std::pair<Cycle, std::uint64_t>> rest(
        first.fired.begin() + static_cast<std::ptrdiff_t>(already),
        first.fired.end());
    EXPECT_EQ(second.fired, rest);
    EXPECT_EQ(copy.firedCount(), original.firedCount());
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    for (int i = 0; i < 1000; ++i) {
        const Cycle when = static_cast<Cycle>((i * 7919) % 5000) + 1;
        q.schedulePayload(when, tag(when));
    }
    while (!q.empty())
        q.runOne();
    ASSERT_EQ(rec.fired.size(), 1000u);
    for (std::size_t i = 0; i < rec.fired.size(); ++i) {
        EXPECT_EQ(rec.fired[i].first, rec.fired[i].second);
        if (i > 0) {
            EXPECT_LE(rec.fired[i - 1].first, rec.fired[i].first);
        }
    }
}

TEST(EventQueueDeath, ScheduleInThePastAborts)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    q.schedulePayload(10, tag(0));
    q.runOne();
    EXPECT_DEATH(q.schedulePayload(9, tag(1)), "");
}

TEST(EventQueueDeath, FiringWithoutHandlerAborts)
{
    EventQueue q;
    q.schedulePayload(10, tag(0));
    EXPECT_DEATH(q.runOne(), "");
}

/**
 * Naive reference model of the event queue: a flat list of
 * (when, seq) pairs, fired in (when, seq) order by linear scan. The
 * heap in the real implementation must be observationally identical
 * to this.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Cycle when, std::uint64_t seq)
    {
        pending.push_back({when, seq});
        peak = std::max(peak, pending.size());
    }

    /** Fire the (when, seq)-minimal entry; the queue must be nonempty. */
    std::pair<Cycle, std::uint64_t>
    fireNext()
    {
        auto best = pending.begin();
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (it->first < best->first ||
                (it->first == best->first && it->second < best->second))
                best = it;
        }
        const auto fired = *best;
        pending.erase(best);
        return fired;
    }

    std::size_t
    size() const
    {
        return pending.size();
    }

    std::size_t
    peakSize() const
    {
        return peak;
    }

    Cycle
    nextCycle() const
    {
        Cycle next = kNoCycle;
        for (const auto &[when, seq] : pending)
            next = std::min(next, when);
        return next;
    }

  private:
    std::vector<std::pair<Cycle, std::uint64_t>> pending;
    std::size_t peak = 0;
};

TEST(EventQueueDifferential, RandomOpsMatchReferenceModel)
{
    EventQueue q;
    Recorder rec;
    rec.attach(q);
    ReferenceQueue model;
    Rng rng(0x5EED);

    // Each event's payload carries its schedule sequence number, so
    // the recorder's (cycle, tag) pairs compare against the model.
    std::uint64_t seq = 0;
    auto fire_and_compare = [&] {
        const std::size_t before = rec.fired.size();
        q.runOne();
        const auto expected = model.fireNext();
        ASSERT_EQ(rec.fired.size(), before + 1);
        EXPECT_EQ(rec.fired.back().second, expected.second);
        EXPECT_EQ(rec.fired.back().first, expected.first);
        EXPECT_EQ(q.now(), expected.first);
    };

    for (int step = 0; step < 20'000; ++step) {
        if (rng.nextDouble() < 0.5 || q.empty()) {
            // Schedule at now + [0, 50).
            const Cycle when = q.now() + rng.nextBounded(50);
            q.schedulePayload(when, tag(seq));
            model.schedule(when, seq);
            ++seq;
        } else {
            fire_and_compare();
        }
        ASSERT_EQ(q.pendingCount(), model.size());
        ASSERT_EQ(q.empty(), model.size() == 0);
        ASSERT_EQ(q.nextEventCycle(), model.nextCycle());
        ASSERT_EQ(q.slotCount(), model.peakSize());
    }

    // Drain what is left; order must match to the end.
    while (!q.empty())
        fire_and_compare();
    EXPECT_EQ(model.size(), 0u);
    EXPECT_EQ(q.firedCount(), rec.fired.size());
    EXPECT_EQ(q.scheduledCount(), seq);
}

} // namespace
} // namespace oscar
