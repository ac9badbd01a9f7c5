/**
 * @file
 * The K OS-core queues of a topology plus the dispatch/balance
 * decision functions that route off-loaded invocations between them.
 *
 * Selection is pure bookkeeping — the System charges migration
 * latencies and schedules events — so every choice here is a
 * deterministic function of queue occupancy and the topology's
 * distance map: same inputs, same queue, at any sweep job count.
 * Ties always break toward the smaller distance and then the lower
 * queue index.
 */

#ifndef OSCAR_OS_OS_QUEUE_SET_HH_
#define OSCAR_OS_OS_QUEUE_SET_HH_

#include <vector>

#include "os/numa_topology.hh"
#include "os/os_core_queue.hh"

namespace oscar
{

class MetricRegistry;

/** Sentinel: no peer queue qualifies for a spill or steal. */
inline constexpr unsigned kNoQueue = ~0u;

/**
 * The per-OS-core queues of one system and their balance policies.
 */
class OsQueueSet
{
  public:
    /** Create one queue per OS core of the topology. */
    void build(const Topology &topology);

    /**
     * Populate this set as a snapshot of `other`, bound to the clone's
     * own topology object (which must equal the original's). Queue
     * occupancy and statistics are copied; registry hooks are not —
     * the clone starts uninstrumented.
     */
    void cloneFrom(const OsQueueSet &other, const Topology &topology);

    /** Number of queues (K); 0 before build(). */
    unsigned size() const
    {
        return static_cast<unsigned>(queues.size());
    }

    /** Queue k. */
    OsCoreQueue &queue(unsigned k) { return queues[k]; }
    const OsCoreQueue &queue(unsigned k) const { return queues[k]; }

    /**
     * Queue an off-load from `user_core` is dispatched to, under the
     * topology's dispatch policy:
     *
     *  - HomeNode and WorkStealing: the user core's home queue (the
     *    nearest OS core; stealing balances later, at completion).
     *  - LeastLoaded: the queue with the smallest in-flight load
     *    (waiting + in service) at off-load time; ties break toward
     *    the smaller node distance, then the lower index.
     */
    unsigned dispatchQueue(CoreId user_core) const;

    /**
     * WorkStealing overflow: when an arrival finds queue `target` busy
     * with at least spillDepth requests already waiting, the queue a
     * strictly less-loaded peer exists to spill to — kNoQueue when
     * spilling is off, the queue is below the depth, or no peer is
     * strictly better. Ties break toward the peer closest to the
     * target's node, then the lower index.
     */
    unsigned spillTarget(unsigned target) const;

    /**
     * WorkStealing balance: the peer queue an idle OS core `thief`
     * should steal from — the deepest queue with at least one waiting
     * request (ties toward the closest node, then the lower index),
     * or kNoQueue when no queue has waiting work.
     */
    unsigned stealVictim(unsigned thief) const;

    /**
     * WorkStealing balance, arrival side: the completely idle queue
     * (no request in service or waiting) nearest to `home` that could
     * steal a request just queued there — kNoQueue when stealing is
     * off or every peer has work. Without this hook a core that never
     * receives dispatches would never complete, and a steal policy
     * triggered only at completion would never wake it.
     */
    unsigned idleThief(unsigned home) const;

    /** Clear every queue's delay distributions (see OsCoreQueue). */
    void resetStats();

    /**
     * Register every queue's metrics: the legacy unprefixed names
     * (`os.queue.offers`, ...) for a single queue, `os.queue.q<k>.`
     * per queue otherwise.
     */
    void registerMetrics(MetricRegistry &registry);

  private:
    std::vector<OsCoreQueue> queues;
    const Topology *topo = nullptr;
};

} // namespace oscar

#endif // OSCAR_OS_OS_QUEUE_SET_HH_
