/**
 * @file
 * Multi-OS-core NUMA topology sweep: when does a second OS core pay
 * for itself?
 *
 * The paper provisions exactly one dedicated OS core. On a two-node
 * CMP serving datacenter traffic that choice is a real capacity
 * question: a single OS core saturates under heavy off-load and makes
 * half the user cores pay an inter-node migration on every request,
 * while a second OS core costs a user core's worth of silicon. This
 * sweep holds the machine fixed (four user cores over two NUMA nodes,
 * distance-dependent migration) and varies the OS-core count,
 * placement (packed on node 0 vs one per node), and balance policy
 * (home-node affinity, least-loaded, work stealing with overflow
 * spill) under two offered loads, reporting per-cell end-to-end
 * request percentiles, pooled OS-queue wait percentiles, and the
 * steal/spill traffic.
 *
 * Each cell is one sweep point whose seed replicas shard across the
 * worker pool (SweepPoint::replicaSeeds) and fold sample-exact:
 * request latencies and per-queue wait histograms merge, so printed
 * percentiles are those of the union distribution. The
 * oscar.sweep.v1 report is byte-identical at any --jobs count.
 *
 * Every point also records request spans (sim/span.hh): a second
 * table per load attributes the p99 of each latency phase per
 * topology — queue wait vs migration vs steal/spill transfer — so a
 * losing topology shows *which* leg of the request path it loses on.
 * Pass --spans PATH to export the per-point oscar.spans.v1 documents.
 *
 * Flags: the shared sweep options (see BenchOptions) plus --tiny,
 * which shrinks the request horizon for CI smoke runs.
 */

#include "bench_common.hh"

namespace
{

using namespace oscar;

/** One topology cell of the sweep. */
struct Scenario
{
    const char *name;
    TopologyConfig topology;
};

TopologyConfig
makeTopology(unsigned os_cores, OsPlacement placement,
             OsDispatchPolicy dispatch)
{
    TopologyConfig topo;
    topo.osCores = os_cores;
    topo.numaNodes = 2;
    topo.placement = placement;
    topo.dispatch = dispatch;
    // A same-node hop is nearly free; crossing the interconnect costs
    // as much again as the base context transfer.
    topo.intraNodeHopCycles = 50;
    topo.interNodeHopCycles = 1'000;
    if (dispatch == OsDispatchPolicy::WorkStealing)
        topo.spillDepth = 2;
    return topo;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace oscar;

    bool tiny = false;
    const BenchOptions opts = parseServingOptions(
        argc, argv, "numa_topology.sweep.json", tiny);

    const WorkloadKind workload = WorkloadKind::Apache;
    const unsigned user_cores = 4;
    const InstCount static_n = 1'000;
    const Cycle migration = 1'000;
    const std::vector<std::uint64_t> seeds =
        tiny ? std::vector<std::uint64_t>{42}
             : std::vector<std::uint64_t>{42, 1337};

    struct Load
    {
        const char *name;
        double meanInterarrival;
    };
    const std::vector<Load> loads = {{"moderate", 26'000.0},
                                     {"heavy", 14'000.0}};

    // The K=1 baseline runs on the *same* two-node machine (the OS
    // core packed on node 0, node-1 users paying the interconnect on
    // every off-load) so the comparison isolates the second OS core.
    const std::vector<Scenario> scenarios = {
        {"K1",
         makeTopology(1, OsPlacement::Packed, OsDispatchPolicy::HomeNode)},
        {"K2/packed/home",
         makeTopology(2, OsPlacement::Packed, OsDispatchPolicy::HomeNode)},
        {"K2/packed/ll",
         makeTopology(2, OsPlacement::Packed,
                      OsDispatchPolicy::LeastLoaded)},
        {"K2/packed/steal",
         makeTopology(2, OsPlacement::Packed,
                      OsDispatchPolicy::WorkStealing)},
        {"K2/spread/home",
         makeTopology(2, OsPlacement::Spread, OsDispatchPolicy::HomeNode)},
        {"K2/spread/ll",
         makeTopology(2, OsPlacement::Spread,
                      OsDispatchPolicy::LeastLoaded)},
        {"K2/spread/steal",
         makeTopology(2, OsPlacement::Spread,
                      OsDispatchPolicy::WorkStealing)},
    };

    std::printf("=== Request latency by OS-core topology (Apache, %u "
                "user cores, 2 NUMA nodes, open-loop) ===\n\n",
                user_cores);

    // One point per (load, scenario) cell; seed replicas shard across
    // the worker pool inside the point and fold into one merged
    // result (see SweepPoint::replicaSeeds).
    std::vector<SweepPoint> points;
    for (const Load &load : loads) {
        for (const Scenario &scenario : scenarios) {
            SweepPoint point;
            point.config = ExperimentRunner::hardwareConfig(
                workload, static_n, migration, seeds.front());
            point.config.userCores = user_cores;
            point.config.topology = scenario.topology;
            // Tenant state stays node-local, so off-loads hit a
            // same-node home OS core whenever the placement provides
            // one.
            point.config.serving =
                makeServing(load.meanInterarrival,
                            DispatchPolicy::NodeAffinity, tiny);
            point.normalize = false;
            point.replicaSeeds = seeds;
            point.recordSpans = true;
            point.label =
                std::string(scenario.name) + "/" + load.name;
            points.push_back(std::move(point));
        }
    }
    const auto results = runSweep(points, opts, opts.fork);

    // Each point already pooled its seed replicas; every percentile
    // is over the merged sample population. The queue-wait column
    // additionally pools the per-queue histograms of the cell.
    std::size_t index = 0;
    for (const Load &load : loads) {
        std::printf("-- %s load (mean interarrival %.0f cy) --\n",
                    load.name, load.meanInterarrival);
        TextTable table({"topology", "req/kcy", "p50", "p95", "p99",
                         "p999", "qwait p99", "steals", "spills"});
        TextTable attribution(phaseHeaders("topology p99 by phase"));
        const std::size_t cell = index;
        for (const Scenario &scenario : scenarios) {
            const SimResults &r = results[index++].results;
            const LatencyHistogram &lat = r.requestLatency;
            LatencyHistogram qwait;
            for (const OsQueueResult &q : r.osQueues)
                qwait.merge(q.wait);
            table.addRow({
                scenario.name,
                formatDouble(r.requestThroughput, 4),
                std::to_string(lat.quantile(0.50)),
                std::to_string(lat.quantile(0.95)),
                std::to_string(lat.quantile(0.99)),
                std::to_string(lat.quantile(0.999)),
                std::to_string(qwait.quantile(0.99)),
                std::to_string(r.steals),
                std::to_string(r.spills),
            });
        }
        std::printf("%s\n", table.render().c_str());
        // Attribution: p99 of each phase's per-request cycle total
        // over the same pooled population — which leg of the request
        // path each topology loses on.
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
            attribution.addRow(phaseP99Row(scenarios[s].name,
                                           results[cell + s].results));
        }
        std::printf("%s\n", attribution.render().c_str());
    }
    std::printf("reading the tables: a second OS core pays for itself "
                "when the K1 row's qwait p99\ndominates its request "
                "tail — queueing at the lone OS core, not service, "
                "sets p99.\nAt low load K1 wins: the second core only "
                "adds cache-cold off-load targets.\nSpread placement "
                "beats packed once inter-node hops cost more than "
                "queue slack,\nand stealing converts the idle remote "
                "core into overflow capacity for bursts.\n");

    return finishSweep("numa_topology", "sweep report", opts, results);
}
