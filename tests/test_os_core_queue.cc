/**
 * @file
 * Unit tests for the OS-core request queue.
 */

#include <gtest/gtest.h>

#include "os/os_core_queue.hh"

namespace oscar
{
namespace
{

TEST(OsCoreQueue, StartsIdle)
{
    OsCoreQueue queue;
    EXPECT_FALSE(queue.busy());
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(OsCoreQueue, FirstRequestStartsImmediately)
{
    OsCoreQueue queue;
    EXPECT_TRUE(queue.offer(OffloadRequest{0, 100}, 100));
    EXPECT_TRUE(queue.busy());
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.counters().admitted, 1u);
    EXPECT_DOUBLE_EQ(queue.queueDelay().mean(), 0.0);
}

TEST(OsCoreQueue, SecondRequestWaits)
{
    OsCoreQueue queue;
    queue.offer(OffloadRequest{0, 100}, 100);
    EXPECT_FALSE(queue.offer(OffloadRequest{1, 150}, 150));
    EXPECT_EQ(queue.depth(), 1u);
}

TEST(OsCoreQueue, CompletionAdmitsNextAndRecordsDelay)
{
    OsCoreQueue queue;
    queue.offer(OffloadRequest{0, 100}, 100);
    queue.offer(OffloadRequest{1, 150}, 150);
    OffloadRequest next{};
    EXPECT_TRUE(queue.completeCurrent(500, next));
    EXPECT_EQ(next.threadId, 1u);
    EXPECT_TRUE(queue.busy());
    EXPECT_EQ(queue.depth(), 0u);
    // Request 1 waited 500 - 150 = 350 cycles.
    EXPECT_DOUBLE_EQ(queue.queueDelay().max(), 350.0);
}

TEST(OsCoreQueue, CompletionWithEmptyQueueGoesIdle)
{
    OsCoreQueue queue;
    queue.offer(OffloadRequest{0, 100}, 100);
    OffloadRequest next{};
    EXPECT_FALSE(queue.completeCurrent(200, next));
    EXPECT_FALSE(queue.busy());
}

TEST(OsCoreQueue, FifoOrder)
{
    OsCoreQueue queue;
    queue.offer(OffloadRequest{0, 10}, 10);
    queue.offer(OffloadRequest{1, 20}, 20);
    queue.offer(OffloadRequest{2, 30}, 30);
    queue.offer(OffloadRequest{3, 40}, 40);
    OffloadRequest next{};
    queue.completeCurrent(100, next);
    EXPECT_EQ(next.threadId, 1u);
    queue.completeCurrent(200, next);
    EXPECT_EQ(next.threadId, 2u);
    queue.completeCurrent(300, next);
    EXPECT_EQ(next.threadId, 3u);
}

TEST(OsCoreQueue, MeanDelayAggregates)
{
    OsCoreQueue queue;
    queue.offer(OffloadRequest{0, 0}, 0);     // delay 0
    queue.offer(OffloadRequest{1, 100}, 100); // will wait 900
    OffloadRequest next{};
    queue.completeCurrent(1000, next);
    EXPECT_DOUBLE_EQ(queue.queueDelay().mean(), 450.0);
}

TEST(OsCoreQueue, ResetStatsKeepsOccupancy)
{
    OsCoreQueue queue;
    queue.offer(OffloadRequest{0, 0}, 0);
    queue.offer(OffloadRequest{1, 10}, 10);
    queue.resetStats();
    EXPECT_TRUE(queue.busy());
    EXPECT_EQ(queue.depth(), 1u);
    EXPECT_EQ(queue.queueDelay().count(), 0u);
    EXPECT_EQ(queue.waitHistogram().count(), 0u);
}

TEST(OsCoreQueueDeath, CompleteWhileIdlePanics)
{
    OsCoreQueue queue;
    OffloadRequest next{};
    EXPECT_DEATH(queue.completeCurrent(10, next), "");
}

TEST(OsCoreQueue, SaturationBuildsDepth)
{
    OsCoreQueue queue;
    queue.offer(OffloadRequest{0, 0}, 0);
    for (std::uint32_t t = 1; t <= 10; ++t)
        queue.offer(OffloadRequest{t, t * 10}, t * 10);
    EXPECT_EQ(queue.depth(), 10u);
    // Drain and verify delays are monotonically... each waits longer.
    OffloadRequest next{};
    double last_delay = -1.0;
    Cycle now = 1000;
    while (queue.completeCurrent(now, next)) {
        const double delay = queue.queueDelay().max();
        EXPECT_GE(delay, last_delay);
        last_delay = delay;
        now += 1000;
    }
    EXPECT_FALSE(queue.busy());
}

} // namespace
} // namespace oscar
