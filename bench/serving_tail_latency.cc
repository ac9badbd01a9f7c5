/**
 * @file
 * Request tail latency per off-load policy — the serving-layer
 * headline experiment.
 *
 * The paper argues for off-loading OS work from *server* performance,
 * but its figures report IPC. This sweep drives the simulator with
 * datacenter traffic (open-loop Poisson arrivals, Zipf-skewed
 * tenants, diurnal modulation) through the three decision policies at
 * both migration design points and two offered loads, and reports
 * what operators actually provision for: p50/p95/p99/p999 end-to-end
 * request latency, alongside request throughput.
 *
 * Each (policy, migration, load) cell is one sweep point whose seed
 * replicas shard across the worker pool (SweepPoint::replicaSeeds)
 * and fold through mergeReplicaResults, whose LatencyHistogram::merge
 * pools the *samples* — the printed tail percentiles are those of the
 * union distribution, not averages of per-seed percentiles. The
 * per-cell detail (including the percentile series) lands in the
 * oscar.sweep.v1 report, byte-identical at any --jobs count.
 *
 * Every point also records request spans (sim/span.hh): a second
 * table per cell attributes the p99 of each latency phase — dispatch
 * wait, user execution, OS-queue wait, migration, OS service — so the
 * policy comparison says not just *which* tail is worse but *where*
 * those cycles go. Pass --spans PATH to export the per-point
 * oscar.spans.v1 documents (aggregates + slowest-request exemplars).
 *
 * Flags: the shared sweep options (see BenchOptions) plus --tiny,
 * which shrinks the request horizon for CI smoke runs.
 */

#include <iterator>

#include "bench_common.hh"

namespace
{

using namespace oscar;

struct PolicySetup
{
    const char *name;
    PolicyKind kind;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace oscar;

    bool tiny = false;
    const BenchOptions opts = parseServingOptions(
        argc, argv, "serving_tail_latency.sweep.json", tiny);

    const WorkloadKind workload = WorkloadKind::Apache;
    const unsigned user_cores = 2;
    const std::vector<std::uint64_t> seeds =
        tiny ? std::vector<std::uint64_t>{42}
             : std::vector<std::uint64_t>{42, 1337};
    // Offered load: fleet-wide mean cycles between arrivals. The
    // heavy point pushes the two server threads toward saturation so
    // queueing — where policies separate on tails — dominates.
    struct Load
    {
        const char *name;
        double meanInterarrival;
    };
    const std::vector<Load> loads = {{"moderate", 26'000.0},
                                     {"heavy", 14'000.0}};
    const std::vector<Cycle> migrations = {5'000, 100};
    const PolicySetup policies[] = {
        {"SI", PolicyKind::StaticInstrumentation},
        {"DI", PolicyKind::DynamicInstrumentation},
        {"HI", PolicyKind::HardwarePredictor},
    };

    std::printf("=== Request tail latency by off-load policy "
                "(Apache, %u user cores, open-loop) ===\n\n",
                user_cores);

    const auto profile = ExperimentRunner::profileServices(workload);

    // One point per (load, migration, policy) cell; the seed replicas
    // shard across the worker pool inside the point and fold into one
    // merged result (see SweepPoint::replicaSeeds), so the pooled
    // percentiles below come straight out of the sweep.
    std::vector<SweepPoint> points;
    for (const Load &load : loads) {
        for (const Cycle migration : migrations) {
            for (const PolicySetup &policy : policies) {
                SweepPoint point;
                switch (policy.kind) {
                  case PolicyKind::StaticInstrumentation:
                    point.config = ExperimentRunner::staticInstrConfig(
                        workload, migration, profile, seeds.front());
                    break;
                  case PolicyKind::DynamicInstrumentation:
                    point.config = ExperimentRunner::dynamicInstrConfig(
                        workload, migration, 100, seeds.front());
                    break;
                  default:
                    point.config =
                        ExperimentRunner::hardwareDynamicConfig(
                            workload, migration, seeds.front());
                    break;
                }
                point.config.userCores = user_cores;
                point.config.serving =
                    makeServing(load.meanInterarrival,
                                DispatchPolicy::RoundRobin, tiny);
                point.normalize = false;
                point.replicaSeeds = seeds;
                point.recordSpans = true;
                point.label = std::string(policy.name) + "/" +
                              load.name + "/lat=" +
                              std::to_string(migration);
                points.push_back(std::move(point));
            }
        }
    }
    const auto results = runSweep(points, opts, opts.fork);

    // Each point already pooled its seed replicas: percentiles are
    // over the merged sample population (LatencyHistogram::merge),
    // not averages of per-seed percentiles.
    std::size_t index = 0;
    for (const Load &load : loads) {
        for (const Cycle migration : migrations) {
            std::printf("-- %s load (mean interarrival %.0f cy), "
                        "migration %llu cy one-way --\n",
                        load.name, load.meanInterarrival,
                        static_cast<unsigned long long>(migration));
            TextTable table({"policy", "req/kcy", "offload%", "p50",
                             "p95", "p99", "p999", "max"});
            TextTable attribution(phaseHeaders("policy p99 by phase"));
            const std::size_t cell = index;
            for (const PolicySetup &policy : policies) {
                const SimResults &r = results[index++].results;
                const LatencyHistogram &lat = r.requestLatency;
                table.addRow({
                    policy.name,
                    formatDouble(r.requestThroughput, 4),
                    formatPercent(r.offloadRatio.ratio(), 1),
                    std::to_string(lat.quantile(0.50)),
                    std::to_string(lat.quantile(0.95)),
                    std::to_string(lat.quantile(0.99)),
                    std::to_string(lat.quantile(0.999)),
                    std::to_string(lat.max()),
                });
            }
            std::printf("%s\n", table.render().c_str());
            // Attribution: p99 of each phase's per-request cycle
            // total over the same pooled population — where the tail
            // cycles actually go, phase by phase.
            for (std::size_t p = 0; p < std::size(policies); ++p) {
                attribution.addRow(phaseP99Row(
                    policies[p].name, results[cell + p].results));
            }
            std::printf("%s\n", attribution.render().c_str());
        }
    }
    std::printf("reading the tables: latencies are end-to-end cycles "
                "(dispatch queueing + service +\nOS-core queueing + "
                "migration). HI's one-cycle decisions off-load short "
                "sequences\nthat SI/DI must run inline, relieving user "
                "caches; whether that wins on p99/p999\ndepends on "
                "load and migration cost — exactly the sensitivity "
                "this sweep exposes.\n");

    return finishSweep("serving_tail_latency", "sweep report", opts, results);
}
