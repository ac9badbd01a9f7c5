/**
 * @file
 * Implementation of the NUMA topology map.
 */

#include "os/numa_topology.hh"

#include "sim/logging.hh"

namespace oscar
{

const char *
osDispatchPolicyName(OsDispatchPolicy policy)
{
    switch (policy) {
      case OsDispatchPolicy::HomeNode: return "home";
      case OsDispatchPolicy::LeastLoaded: return "least-loaded";
      case OsDispatchPolicy::WorkStealing: return "steal";
    }
    oscar_panic("unknown dispatch policy %u",
                static_cast<unsigned>(policy));
}

const char *
osPlacementName(OsPlacement placement)
{
    switch (placement) {
      case OsPlacement::Packed: return "packed";
      case OsPlacement::Spread: return "spread";
    }
    oscar_panic("unknown placement %u",
                static_cast<unsigned>(placement));
}

bool
TopologyConfig::isDefault() const
{
    return osCores == 1 && numaNodes == 1 &&
           intraNodeHopCycles == 0 && interNodeHopCycles == 0 &&
           dispatch == OsDispatchPolicy::HomeNode && spillDepth == 0;
}

void
TopologyConfig::validate(unsigned user_cores) const
{
    if (osCores == 0)
        oscar_fatal("topology needs at least one OS core");
    if (numaNodes == 0)
        oscar_fatal("topology needs at least one NUMA node");
    if (user_cores < numaNodes) {
        oscar_fatal("topology has %u NUMA nodes but only %u user "
                    "cores; every node needs at least one",
                    numaNodes, user_cores);
    }
    if (intraNodeHopCycles > kMaxMigrationCycles ||
        interNodeHopCycles > kMaxMigrationCycles) {
        oscar_fatal("topology hop costs must be at most %llu cycles, "
                    "got intraNodeHopCycles %llu, interNodeHopCycles %llu",
                    static_cast<unsigned long long>(kMaxMigrationCycles),
                    static_cast<unsigned long long>(intraNodeHopCycles),
                    static_cast<unsigned long long>(interNodeHopCycles));
    }
    if (spillDepth != 0 && dispatch != OsDispatchPolicy::WorkStealing) {
        oscar_fatal("spillDepth is a work-stealing knob; dispatch "
                    "policy '%s' never spills",
                    osDispatchPolicyName(dispatch));
    }
}

Topology::Topology(unsigned user_cores, const TopologyConfig &config,
                   Cycle base_one_way)
    : cfg(config), users(user_cores), baseOneWay(base_one_way)
{
    cfg.validate(users);

    // User cores interleave over nodes; OS cores follow the placement.
    nodeMap.resize(users + cfg.osCores);
    for (unsigned c = 0; c < users; ++c)
        nodeMap[c] = c % cfg.numaNodes;
    for (unsigned k = 0; k < cfg.osCores; ++k) {
        nodeMap[users + k] = cfg.placement == OsPlacement::Packed
                                 ? 0
                                 : k % cfg.numaNodes;
    }

    homeMap.resize(users);
    for (unsigned c = 0; c < users; ++c) {
        unsigned best = 0;
        unsigned best_hops = hops(c, osCoreId(0));
        for (unsigned k = 1; k < cfg.osCores; ++k) {
            const unsigned h = hops(c, osCoreId(k));
            if (h < best_hops) {
                best = k;
                best_hops = h;
            }
        }
        homeMap[c] = best;
    }
}

unsigned
Topology::nodeOf(CoreId core) const
{
    oscar_assert(core < nodeMap.size());
    return nodeMap[core];
}

unsigned
Topology::hops(CoreId from, CoreId to) const
{
    const unsigned a = nodeOf(from);
    const unsigned b = nodeOf(to);
    return a > b ? a - b : b - a;
}

Cycle
Topology::migrationOneWay(CoreId from, CoreId to) const
{
    const unsigned h = hops(from, to);
    if (h == 0)
        return baseOneWay + cfg.intraNodeHopCycles;
    return baseOneWay + static_cast<Cycle>(h) * cfg.interNodeHopCycles;
}

unsigned
Topology::homeQueue(CoreId user_core) const
{
    oscar_assert(user_core < homeMap.size());
    return homeMap[user_core];
}

} // namespace oscar
