/**
 * @file
 * Multi-OS-core NUMA topology tests: the resolved core→node maps and
 * migration distances, the K=1 differential against the legacy
 * single-OS-core path, the conservation / starvation / merge-pooling
 * properties of the work-stealing queue fabric, and the per-core cycle
 * breakdown the utilizations are built from.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cpu/core.hh"
#include "os/numa_topology.hh"
#include "os/os_queue_set.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "system/experiment.hh"
#include "system/system.hh"
#include "system/trace_capture.hh"

namespace oscar
{
namespace
{

/** Small off-loading HI config every test here starts from. */
SystemConfig
offloadConfig(std::uint64_t seed = 42)
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/100,
        /*migration_one_way=*/100, seed);
    config.warmupInstructions = 20'000;
    config.measureInstructions = 60'000;
    return config;
}

/** The golden multi-queue scenario: everything off-loads, five users
 *  over two nodes, two OS cores with stealing and overflow spill. */
SystemConfig
stealConfig(std::uint64_t seed = 42)
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/0,
        /*migration_one_way=*/100, seed);
    config.userCores = 5;
    config.topology.osCores = 2;
    config.topology.numaNodes = 2;
    config.topology.placement = OsPlacement::Spread;
    config.topology.dispatch = OsDispatchPolicy::WorkStealing;
    config.topology.spillDepth = 1;
    config.topology.intraNodeHopCycles = 20;
    config.topology.interNodeHopCycles = 400;
    config.warmupInstructions = 20'000;
    config.measureInstructions = 15'000;
    return config;
}

// ---------------------------------------------------------------------
// Topology map

TEST(TopologyMap, DefaultIsThePapersMachine)
{
    EXPECT_TRUE(TopologyConfig{}.isDefault());

    TopologyConfig two_cores;
    two_cores.osCores = 2;
    EXPECT_FALSE(two_cores.isDefault());

    TopologyConfig hop_cost;
    hop_cost.intraNodeHopCycles = 1;
    EXPECT_FALSE(hop_cost.isDefault());

    TopologyConfig balancer;
    balancer.dispatch = OsDispatchPolicy::LeastLoaded;
    EXPECT_FALSE(balancer.isDefault());
}

TEST(TopologyMap, UserCoresInterleaveAcrossNodes)
{
    TopologyConfig cfg;
    cfg.osCores = 2;
    cfg.numaNodes = 2;
    cfg.placement = OsPlacement::Spread;
    const Topology topo(4, cfg, 1000);
    EXPECT_EQ(topo.nodeOf(0), 0u);
    EXPECT_EQ(topo.nodeOf(1), 1u);
    EXPECT_EQ(topo.nodeOf(2), 0u);
    EXPECT_EQ(topo.nodeOf(3), 1u);
    // Spread: OS core k on node k mod N.
    EXPECT_EQ(topo.nodeOf(topo.osCoreId(0)), 0u);
    EXPECT_EQ(topo.nodeOf(topo.osCoreId(1)), 1u);
}

TEST(TopologyMap, PackedPlacementPinsOsCoresToNodeZero)
{
    TopologyConfig cfg;
    cfg.osCores = 3;
    cfg.numaNodes = 2;
    cfg.placement = OsPlacement::Packed;
    const Topology topo(4, cfg, 1000);
    for (unsigned k = 0; k < 3; ++k)
        EXPECT_EQ(topo.nodeOf(topo.osCoreId(k)), 0u);
}

TEST(TopologyMap, HomeQueueIsNearestLowestIndex)
{
    TopologyConfig cfg;
    cfg.osCores = 2;
    cfg.numaNodes = 2;
    cfg.placement = OsPlacement::Spread;
    const Topology topo(4, cfg, 1000);
    // Same-node OS core wins; ties (packed) fall to queue 0.
    EXPECT_EQ(topo.homeQueue(0), 0u);
    EXPECT_EQ(topo.homeQueue(1), 1u);
    EXPECT_EQ(topo.homeQueue(2), 0u);
    EXPECT_EQ(topo.homeQueue(3), 1u);

    cfg.placement = OsPlacement::Packed;
    const Topology packed(4, cfg, 1000);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(packed.homeQueue(c), 0u);
}

// ---------------------------------------------------------------------
// K=1 differential: the generalized fabric with one OS core must be
// indistinguishable from the legacy single-OS-core path — identical
// event streams and identical results, for every dispatch policy and
// across seeds.

class SingleQueueDifferential
    : public testing::TestWithParam<OsDispatchPolicy>
{
};

TEST_P(SingleQueueDifferential, MatchesLegacySingleOsCore)
{
    for (const std::uint64_t seed : {42ull, 7ull, 1337ull}) {
        SystemConfig legacy = offloadConfig(seed);

        SystemConfig topo_cfg = offloadConfig(seed);
        topo_cfg.topology.osCores = 1;
        topo_cfg.topology.numaNodes = 1;
        topo_cfg.topology.dispatch = GetParam();
        // Zero hop extras: distance collapses to the flat one-way
        // latency regardless of policy.
        topo_cfg.topology.intraNodeHopCycles = 0;
        topo_cfg.topology.interNodeHopCycles = 0;

        const TraceCapture a = captureTrace(legacy);
        const TraceCapture b = captureTrace(topo_cfg);

        // Event streams are line-for-line identical (headers may
        // differ: a non-default dispatch policy is recorded there).
        ASSERT_EQ(a.lines.size(), b.lines.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < a.lines.size(); ++i)
            ASSERT_EQ(a.lines[i], b.lines[i])
                << "seed " << seed << " event " << i;

        EXPECT_EQ(a.results.makespan, b.results.makespan);
        EXPECT_EQ(a.results.retired, b.results.retired);
        EXPECT_EQ(a.results.offloaded, b.results.offloaded);
        EXPECT_EQ(a.results.invocations, b.results.invocations);
        EXPECT_EQ(a.results.throughput, b.results.throughput);
        EXPECT_EQ(a.results.meanQueueDelay, b.results.meanQueueDelay);
        EXPECT_EQ(a.results.maxQueueDelay, b.results.maxQueueDelay);
        EXPECT_EQ(a.results.osCoreUtilization,
                  b.results.osCoreUtilization);
        EXPECT_EQ(a.results.migrationCycles, b.results.migrationCycles);
        EXPECT_EQ(a.results.queueWaitCycles, b.results.queueWaitCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, SingleQueueDifferential,
                         testing::Values(OsDispatchPolicy::HomeNode,
                                         OsDispatchPolicy::LeastLoaded,
                                         OsDispatchPolicy::WorkStealing),
                         [](const auto &info) {
                             std::string name =
                                 osDispatchPolicyName(info.param);
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

// ---------------------------------------------------------------------
// Work-stealing properties

/** Count trace events of one kind. */
std::size_t
countKind(const std::vector<TraceEvent> &events, TraceEventKind kind)
{
    std::size_t n = 0;
    for (const TraceEvent &e : events)
        n += e.kind == kind ? 1 : 0;
    return n;
}

TEST(WorkStealing, ConservationNothingLostOrDuplicated)
{
    for (const std::uint64_t seed : {42ull, 99ull}) {
        SystemConfig config = stealConfig(seed);
        MemoryTraceSink sink;
        MetricRegistry registry;
        const SimResults r =
            ExperimentRunner::run(config, &sink, &registry);
        const std::vector<TraceEvent> events = sink.events();

        // Every off-load that migrated out migrated back and ended
        // exactly once: outbound and return migrations balance, and
        // each pairs with one off-loaded invocation end.
        std::size_t to_os = 0;
        std::size_t to_user = 0;
        std::size_t ended_offloaded = 0;
        std::map<std::uint32_t, long> open_per_thread;
        for (const TraceEvent &e : events) {
            if (e.kind == TraceEventKind::Migration) {
                (e.toOs ? to_os : to_user) += 1;
            } else if (e.kind == TraceEventKind::InvocationEnd) {
                if (e.offload)
                    ++ended_offloaded;
                --open_per_thread[e.thread];
            } else if (e.kind == TraceEventKind::InvocationBegin) {
                ++open_per_thread[e.thread];
            }
        }
        // The run halts the moment the measured-instruction target is
        // reached, so each thread may leave at most one off-load in
        // flight (migrated out, never returned).
        ASSERT_GE(to_os, to_user) << "seed " << seed;
        EXPECT_LE(to_os - to_user, config.userCores) << "seed " << seed;
        EXPECT_EQ(to_user, ended_offloaded) << "seed " << seed;
        // At most one invocation is in flight per thread at the end.
        for (const auto &[tid, open] : open_per_thread) {
            EXPECT_GE(open, 0) << "thread " << tid;
            EXPECT_LE(open, 1) << "thread " << tid;
        }

        // Steal/spill events reference distinct, valid queues.
        const unsigned K = config.topology.osCores;
        for (const TraceEvent &e : events) {
            if (e.kind != TraceEventKind::Steal &&
                e.kind != TraceEventKind::Spill) {
                continue;
            }
            EXPECT_LT(e.queue, K);
            EXPECT_LT(e.queueFrom, K);
            EXPECT_NE(e.queue, e.queueFrom);
        }

        // Registry counters (never reset) match the whole-run trace.
        EXPECT_EQ(registry.seriesValue("numa.steals"),
                  static_cast<double>(
                      countKind(events, TraceEventKind::Steal)));
        EXPECT_EQ(registry.seriesValue("numa.spills"),
                  static_cast<double>(
                      countKind(events, TraceEventKind::Spill)));
        // Every migrate/steal/spill is one counted transfer.
        EXPECT_EQ(registry.seriesValue("numa.migrations.intra") +
                      registry.seriesValue("numa.migrations.inter"),
                  static_cast<double>(
                      to_os + to_user +
                      countKind(events, TraceEventKind::Steal) +
                      countKind(events, TraceEventKind::Spill)));

        // Balance actions pair up across the queue set.
        std::uint64_t steals_in = 0;
        std::uint64_t steals_out = 0;
        std::uint64_t spills_in = 0;
        std::uint64_t spills_out = 0;
        for (const OsQueueResult &q : r.osQueues) {
            steals_in += q.stealsIn;
            steals_out += q.stealsOut;
            spills_in += q.spillsIn;
            spills_out += q.spillsOut;
        }
        EXPECT_EQ(steals_in, steals_out) << "seed " << seed;
        EXPECT_EQ(spills_in, spills_out) << "seed " << seed;
        EXPECT_EQ(r.steals, steals_in);
        EXPECT_EQ(r.spills, spills_in);
        EXPECT_GT(r.steals, 0u) << "scenario must actually steal";
        EXPECT_GT(r.spills, 0u) << "scenario must actually spill";
    }
}

TEST(WorkStealing, IdlePeerServesAHomeBoundQueue)
{
    // Packed placement + home dispatch sends every off-load to queue
    // 0; the second OS core sees work only by stealing. Bounded
    // starvation: the idle peer picks up queued requests rather than
    // letting them wait for the busy core.
    SystemConfig config = stealConfig();
    config.topology.placement = OsPlacement::Packed;
    System system(config);
    const SimResults r = system.run();
    ASSERT_EQ(r.osQueues.size(), 2u);
    EXPECT_GT(r.steals, 0u);
    // Everything the second queue served arrived by balancing: each
    // adopted steal is an admission, and the only other inflow is
    // spilled arrivals (some of which queue 0 may steal back, so the
    // upper bound is not tight).
    EXPECT_GE(r.osQueues[1].admitted, r.osQueues[1].stealsIn);
    EXPECT_LE(r.osQueues[1].admitted,
              r.osQueues[1].stealsIn + r.osQueues[1].spillsIn);
    EXPECT_GT(r.osQueues[1].admitted, 0u);
    EXPECT_GT(r.osQueues[1].utilization, 0.0);
    // No request waits unbounded: the worst observed delay is far
    // below the measured region (a starved queue would pin a request
    // for the whole run).
    EXPECT_LT(r.maxQueueDelay, static_cast<double>(r.makespan) / 2.0);
}

TEST(WorkStealing, StealingReducesWorstCaseWait)
{
    // Same saturated scenario with and without balancing: stealing
    // must not increase the pooled mean queue delay.
    SystemConfig no_balance = stealConfig();
    no_balance.topology.dispatch = OsDispatchPolicy::HomeNode;
    no_balance.topology.spillDepth = 0;
    SystemConfig balance = stealConfig();

    const SimResults a = System(no_balance).run();
    const SimResults b = System(balance).run();
    EXPECT_LE(b.meanQueueDelay, a.meanQueueDelay);
}

TEST(WorkStealing, MergedPerQueueHistogramsPoolExactly)
{
    System system(stealConfig());
    const SimResults r = system.run();
    ASSERT_EQ(r.osQueues.size(), 2u);

    LatencyHistogram merged;
    RunningStat pooled;
    std::uint64_t admitted = 0;
    for (const OsQueueResult &q : r.osQueues) {
        merged.merge(q.wait);
        pooled.merge(q.queueDelay);
        admitted += q.admitted;
    }
    // The histogram and the RunningStat record the same admissions at
    // the same sites; merging preserves every sample.
    EXPECT_EQ(merged.count(), admitted);
    EXPECT_EQ(pooled.count(), admitted);
    EXPECT_EQ(static_cast<double>(merged.max()), pooled.max());
    // The pooled RunningStat is exactly what the system reports.
    EXPECT_EQ(r.meanQueueDelay, pooled.mean());
    EXPECT_EQ(r.maxQueueDelay, pooled.max());
    // Histogram mean matches within bucket resolution (1/64 slots).
    if (admitted > 0 && pooled.mean() > 0.0) {
        EXPECT_NEAR(merged.mean(), pooled.mean(),
                    pooled.mean() / 32.0 + 1.0);
    }
}

// ---------------------------------------------------------------------
// Metric names

TEST(TopologyMetrics, MultiQueueRunsExportPerQueueNames)
{
    MetricRegistry registry;
    ExperimentRunner::run(stealConfig(), nullptr, &registry);
    EXPECT_GE(registry.seriesIndex("os.queue.q0.offers"), 0);
    EXPECT_GE(registry.seriesIndex("os.queue.q1.offers"), 0);
    EXPECT_GE(registry.seriesIndex("numa.migrations.intra"), 0);
    EXPECT_GE(registry.seriesIndex("numa.migrations.inter"), 0);
    EXPECT_GE(registry.seriesIndex("numa.steals"), 0);
    EXPECT_GE(registry.seriesIndex("numa.spills"), 0);
    EXPECT_LT(registry.seriesIndex("os.queue.offers"), 0);

    const double q0 = registry.seriesValue("os.queue.q0.offers");
    const double q1 = registry.seriesValue("os.queue.q1.offers");
    EXPECT_GT(q0 + q1, 0.0);
}

TEST(TopologyMetrics, SingleQueueRunsKeepLegacyNames)
{
    MetricRegistry registry;
    ExperimentRunner::run(offloadConfig(), nullptr, &registry);
    EXPECT_GE(registry.seriesIndex("os.queue.offers"), 0);
    EXPECT_LT(registry.seriesIndex("os.queue.q0.offers"), 0);
    // NUMA migration accounting exists even on the default machine
    // (everything lands on the one node).
    EXPECT_GE(registry.seriesIndex("numa.migrations.intra"), 0);
    EXPECT_EQ(registry.seriesValue("numa.migrations.inter"), 0.0);
    EXPECT_LT(registry.seriesIndex("numa.steals"), 0);
}

// ---------------------------------------------------------------------
// Queue-set dispatch decisions

TEST(QueueSetDispatch, LeastLoadedPrefersEmptierThenCloser)
{
    TopologyConfig cfg;
    cfg.osCores = 2;
    cfg.numaNodes = 2;
    cfg.placement = OsPlacement::Spread;
    cfg.dispatch = OsDispatchPolicy::LeastLoaded;
    const Topology topo(2, cfg, 1000);
    OsQueueSet set;
    set.build(topo);

    // Both empty: user 1 (node 1) goes to its closer queue 1.
    EXPECT_EQ(set.dispatchQueue(1), 1u);
    // Load queue 1: user 1 now crosses the interconnect to queue 0.
    set.queue(1).offer({0, 0}, 0);
    EXPECT_EQ(set.dispatchQueue(1), 0u);
}

TEST(QueueSetDispatch, SpillRequiresDepthAndAStrictlyLighterPeer)
{
    TopologyConfig cfg;
    cfg.osCores = 2;
    cfg.numaNodes = 1;
    cfg.dispatch = OsDispatchPolicy::WorkStealing;
    cfg.spillDepth = 1;
    const Topology topo(2, cfg, 1000);
    OsQueueSet set;
    set.build(topo);

    // Idle home: no spill.
    EXPECT_EQ(set.spillTarget(0), kNoQueue);
    // Busy but shallow: still no spill.
    set.queue(0).offer({0, 0}, 0);
    EXPECT_EQ(set.spillTarget(0), kNoQueue);
    // Depth 1 and queue 1 idle: spill to 1.
    set.queue(0).offer({1, 0}, 0);
    EXPECT_EQ(set.spillTarget(0), 1u);
    // Peer equally loaded: no strictly lighter target.
    set.queue(1).offer({2, 0}, 0);
    set.queue(1).offer({3, 0}, 0);
    EXPECT_EQ(set.spillTarget(0), kNoQueue);
}

TEST(QueueSetDispatch, StealVictimIsTheDeepestQueue)
{
    TopologyConfig cfg;
    cfg.osCores = 3;
    cfg.numaNodes = 1;
    cfg.dispatch = OsDispatchPolicy::WorkStealing;
    const Topology topo(3, cfg, 1000);
    OsQueueSet set;
    set.build(topo);

    // No waiting work anywhere: nothing to steal.
    EXPECT_EQ(set.stealVictim(2), kNoQueue);
    set.queue(0).offer({0, 0}, 0); // in service, depth 0
    EXPECT_EQ(set.stealVictim(2), kNoQueue);
    set.queue(0).offer({1, 0}, 0); // depth 1
    set.queue(1).offer({2, 0}, 0);
    set.queue(1).offer({3, 0}, 0); // depth 1
    set.queue(1).offer({4, 0}, 0); // depth 2 — deepest
    EXPECT_EQ(set.stealVictim(2), 1u);
}

TEST(TopologyDistance, DefaultDegeneratesToTheFlatModel)
{
    // The paper's machine: every distance is the plain one-way
    // migration latency, at the conservative (5,000-cycle), aggressive
    // (100-cycle) and zero-overhead design points alike.
    for (const Cycle one_way : {Cycle{5000}, Cycle{100}, Cycle{0}}) {
        const Topology topo(2, TopologyConfig{}, one_way);
        for (CoreId from = 0; from < 3; ++from) {
            for (CoreId to = 0; to < 3; ++to)
                EXPECT_EQ(topo.migrationOneWay(from, to), one_way);
        }
    }
}

TEST(TopologyDistance, SymmetricAndDistanceDependent)
{
    TopologyConfig cfg;
    cfg.osCores = 3;
    cfg.numaNodes = 3;
    cfg.placement = OsPlacement::Spread;
    cfg.intraNodeHopCycles = 20;
    cfg.interNodeHopCycles = 400;
    const Topology topo(3, cfg, 1000);
    // Users 0/1/2 on nodes 0/1/2; OS cores 3/4/5 on nodes 0/1/2.
    // Same node: base + intra hop.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(0)), 1020u);
    // One node apart: base + one inter-node hop.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(1)), 1400u);
    // Two nodes apart: the linear distance scales the hop cost.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(2)), 1800u);
    // Symmetric in its arguments, including OS-to-OS transfers.
    for (CoreId a = 0; a < 6; ++a) {
        for (CoreId b = 0; b < 6; ++b) {
            EXPECT_EQ(topo.migrationOneWay(a, b),
                      topo.migrationOneWay(b, a));
        }
    }
    EXPECT_EQ(topo.hops(topo.osCoreId(0), topo.osCoreId(2)), 2u);
}

TEST(TopologyDistance, ComposesWithTheInterconnectModel)
{
    // An inter-node hop of 20 cycles — the coherence fabric's round
    // trip, two 10-cycle MemTimings::interconnectHop crossings — is
    // charged once per node crossing.
    TopologyConfig cfg;
    cfg.osCores = 2;
    cfg.numaNodes = 2;
    cfg.placement = OsPlacement::Spread;
    cfg.interNodeHopCycles = 20;
    const Topology topo(2, cfg, 100);
    // User 0 (node 0) to OS core 1 (node 1): one crossing.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(1)), 120u);
    // Same-node migration pays no crossing at all.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(0)), 100u);
}

TEST(Core, CycleBreakdownTotals)
{
    CycleBreakdown cycles;
    cycles.user = 100;
    cycles.os = 50;
    cycles.decision = 5;
    cycles.migration = 20;
    cycles.queueWait = 25;
    EXPECT_EQ(cycles.total(), 200u);
}

TEST(Core, UtilizationFraction)
{
    CycleBreakdown cycles;
    cycles.os = 250;
    EXPECT_DOUBLE_EQ(cycles.utilization(1000), 0.25);
    EXPECT_DOUBLE_EQ(cycles.utilization(0), 0.0);
}

} // namespace
} // namespace oscar
