/**
 * @file
 * Multi-OS-core NUMA topology: core→role→node placement, distance-
 * dependent migration latency, and the dispatch/balance policies that
 * route off-loaded invocations to one of K OS-core queues.
 *
 * The paper dedicates a single OS core; a production CMP serving many
 * request streams would shard OS work across K OS cores spread over
 * NUMA nodes, where the cost of moving a thread depends on how far it
 * travels. TopologyConfig captures the scenario knobs (K, node count,
 * placement, hop costs, balance policy); Topology is the resolved
 * core→node map with distance queries. The default configuration —
 * one OS core, one node, zero hop extras — reproduces the paper's
 * machine exactly: every distance collapses to the flat one-way
 * migration latency and all dispatch policies degenerate to "the one
 * queue", so single-OS-core runs stay byte-identical.
 */

#ifndef OSCAR_OS_NUMA_TOPOLOGY_HH_
#define OSCAR_OS_NUMA_TOPOLOGY_HH_

#include <vector>

#include "sim/types.hh"

namespace oscar
{

/** How off-loaded invocations are routed to OS-core queues. */
enum class OsDispatchPolicy : std::uint8_t
{
    /** Always the nearest OS core (static home-node affinity). */
    HomeNode,
    /** The queue with the fewest requests in flight at off-load time. */
    LeastLoaded,
    /**
     * Home-node affinity plus balancing: an idle OS core steals the
     * oldest waiting request from the deepest other queue, and an
     * arrival finding its home queue at or beyond the spill depth
     * overflows to a strictly less-loaded queue.
     */
    WorkStealing,
};

/** Where the K OS cores sit relative to the NUMA nodes. */
enum class OsPlacement : std::uint8_t
{
    /** All OS cores on node 0 (a dedicated "OS node"). */
    Packed,
    /** OS core k on node k mod N (a local OS core per node). */
    Spread,
};

/** Stable lowercase name (reports, trace headers). */
const char *osDispatchPolicyName(OsDispatchPolicy policy);
const char *osPlacementName(OsPlacement placement);

/**
 * Largest configurable one-way migration cost, base or per hop: 10^9
 * cycles, 2 x 10^5 times the paper's largest latency. Even 10^7 round
 * trips at the largest base and 63 inter-node hops stay below 2^63
 * cycles, so event times cannot wrap.
 */
inline constexpr Cycle kMaxMigrationCycles = 1'000'000'000;

/**
 * Scenario knobs for the multi-OS-core NUMA generalization.
 *
 * User cores are always interleaved across nodes (core c on node
 * c mod N) following the NUMA-balanced whole-core budgeting rule;
 * placement selects where the OS cores go. Migration latency between
 * two cores is the flat base one-way cost plus a distance term:
 * intraNodeHopCycles within a node, interNodeHopCycles per node of
 * linear distance between nodes.
 */
struct TopologyConfig
{
    /** Number of dedicated OS cores (K); used when offload is on. */
    unsigned osCores = 1;

    /** Number of NUMA nodes (N). */
    unsigned numaNodes = 1;

    /** OS-core placement across nodes. */
    OsPlacement placement = OsPlacement::Packed;

    /** Queue dispatch / balance policy. */
    OsDispatchPolicy dispatch = OsDispatchPolicy::HomeNode;

    /** Extra one-way migration cycles between cores on the same node. */
    Cycle intraNodeHopCycles = 0;

    /** Extra one-way migration cycles per inter-node hop. */
    Cycle interNodeHopCycles = 0;

    /**
     * WorkStealing only: an arrival finding its home queue busy with
     * this many requests already waiting overflows to a strictly
     * less-loaded queue. 0 disables spilling.
     */
    std::size_t spillDepth = 0;

    /**
     * True when this is the paper's machine: one OS core, one node,
     * zero hop extras, home dispatch — the configuration every
     * existing experiment runs and the golden traces pin down.
     */
    bool isDefault() const;

    /** Sanity-check against the user-core count; fatal on error. */
    void validate(unsigned user_cores) const;
};

/**
 * Resolved topology: the core→node map, distance queries, and the
 * home-queue table. Built once per System from the validated config.
 */
class Topology
{
  public:
    Topology() = default;

    /**
     * @param user_cores User cores 0..U-1 (interleaved over nodes).
     * @param config Validated topology knobs.
     * @param base_one_way Flat one-way migration latency in cycles.
     */
    Topology(unsigned user_cores, const TopologyConfig &config,
             Cycle base_one_way);

    /** The configuration this topology was built from. */
    const TopologyConfig &config() const { return cfg; }

    /** User cores in the system. */
    unsigned userCores() const { return users; }

    /** OS cores in the system (K). */
    unsigned osCoreCount() const { return cfg.osCores; }

    /** NUMA nodes (N). */
    unsigned nodes() const { return cfg.numaNodes; }

    /** Core id of OS core (= queue) k. */
    CoreId osCoreId(unsigned k) const
    {
        return users + static_cast<CoreId>(k);
    }

    /** Queue index of an OS core id. */
    unsigned queueOf(CoreId os_core) const { return os_core - users; }

    /** NUMA node a core lives on. */
    unsigned nodeOf(CoreId core) const;

    /** Linear node distance between two cores (0 = same node). */
    unsigned hops(CoreId from, CoreId to) const;

    /**
     * One-way migration latency between two cores: the flat base cost
     * plus intraNodeHopCycles (same node) or hops × interNodeHopCycles
     * (different nodes). Symmetric in its arguments.
     */
    Cycle migrationOneWay(CoreId from, CoreId to) const;

    /**
     * Home queue of a user core: the OS core with the smallest node
     * distance, ties broken toward the lowest queue index.
     */
    unsigned homeQueue(CoreId user_core) const;

  private:
    TopologyConfig cfg;
    unsigned users = 1;
    Cycle baseOneWay = 0;
    /** Node of every core, indexed by core id. */
    std::vector<unsigned> nodeMap;
    /** Home queue of every user core. */
    std::vector<unsigned> homeMap;
};

} // namespace oscar

#endif // OSCAR_OS_NUMA_TOPOLOGY_HH_
