/**
 * @file
 * Implementation of the OS-core queue set and its balance policies.
 */

#include "os/os_queue_set.hh"

#include <string>

#include "sim/logging.hh"

namespace oscar
{

void
OsQueueSet::build(const Topology &topology)
{
    oscar_assert(queues.empty());
    topo = &topology;
    queues.resize(topology.osCoreCount());
}

void
OsQueueSet::cloneFrom(const OsQueueSet &other, const Topology &topology)
{
    oscar_assert(queues.empty());
    oscar_assert(topology.osCoreCount() == other.size());
    topo = &topology;
    queues = other.queues;
}

unsigned
OsQueueSet::dispatchQueue(CoreId user_core) const
{
    oscar_assert(topo != nullptr && !queues.empty());
    switch (topo->config().dispatch) {
      case OsDispatchPolicy::HomeNode:
      case OsDispatchPolicy::WorkStealing:
        return topo->homeQueue(user_core);
      case OsDispatchPolicy::LeastLoaded: {
        unsigned best = 0;
        std::size_t best_load = queues[0].load();
        unsigned best_hops = topo->hops(user_core, topo->osCoreId(0));
        for (unsigned k = 1; k < size(); ++k) {
            const std::size_t load = queues[k].load();
            const unsigned h = topo->hops(user_core, topo->osCoreId(k));
            if (load < best_load ||
                (load == best_load && h < best_hops)) {
                best = k;
                best_load = load;
                best_hops = h;
            }
        }
        return best;
      }
    }
    oscar_panic("unhandled dispatch policy");
}

unsigned
OsQueueSet::spillTarget(unsigned target) const
{
    oscar_assert(topo != nullptr && target < size());
    const std::size_t spill_depth = topo->config().spillDepth;
    if (topo->config().dispatch != OsDispatchPolicy::WorkStealing ||
        spill_depth == 0 || size() < 2) {
        return kNoQueue;
    }
    const OsCoreQueue &home = queues[target];
    if (!home.busy() || home.depth() < spill_depth)
        return kNoQueue;

    const CoreId target_core = topo->osCoreId(target);
    unsigned best = kNoQueue;
    std::size_t best_load = home.load();
    unsigned best_hops = 0;
    for (unsigned k = 0; k < size(); ++k) {
        if (k == target)
            continue;
        const std::size_t load = queues[k].load();
        const unsigned h = topo->hops(target_core, topo->osCoreId(k));
        if (load < best_load ||
            (best != kNoQueue && load == best_load && h < best_hops)) {
            best = k;
            best_load = load;
            best_hops = h;
        }
    }
    return best;
}

unsigned
OsQueueSet::stealVictim(unsigned thief) const
{
    oscar_assert(topo != nullptr && thief < size());
    if (topo->config().dispatch != OsDispatchPolicy::WorkStealing ||
        size() < 2) {
        return kNoQueue;
    }
    const CoreId thief_core = topo->osCoreId(thief);
    unsigned best = kNoQueue;
    std::size_t best_depth = 0;
    unsigned best_hops = 0;
    for (unsigned k = 0; k < size(); ++k) {
        if (k == thief)
            continue;
        const std::size_t depth = queues[k].depth();
        if (depth == 0)
            continue;
        const unsigned h = topo->hops(thief_core, topo->osCoreId(k));
        if (best == kNoQueue || depth > best_depth ||
            (depth == best_depth && h < best_hops)) {
            best = k;
            best_depth = depth;
            best_hops = h;
        }
    }
    return best;
}

unsigned
OsQueueSet::idleThief(unsigned home) const
{
    oscar_assert(topo != nullptr && home < size());
    if (topo->config().dispatch != OsDispatchPolicy::WorkStealing ||
        size() < 2) {
        return kNoQueue;
    }
    const CoreId home_core = topo->osCoreId(home);
    unsigned best = kNoQueue;
    unsigned best_hops = 0;
    for (unsigned k = 0; k < size(); ++k) {
        if (k == home || queues[k].load() != 0)
            continue;
        const unsigned h = topo->hops(home_core, topo->osCoreId(k));
        if (best == kNoQueue || h < best_hops) {
            best = k;
            best_hops = h;
        }
    }
    return best;
}

void
OsQueueSet::resetStats()
{
    for (OsCoreQueue &q : queues)
        q.resetStats();
}

void
OsQueueSet::registerMetrics(MetricRegistry &registry)
{
    if (size() == 1) {
        queues[0].registerMetrics(registry);
        return;
    }
    for (unsigned k = 0; k < size(); ++k) {
        queues[k].registerMetrics(registry, "os.queue.q" +
                                                std::to_string(k) + ".");
    }
}

} // namespace oscar
