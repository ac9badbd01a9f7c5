/**
 * @file
 * Reproduces Figure 1: the runtime overhead of dynamic *software*
 * instrumentation of every possible OS off-loading point.
 *
 * Every transition to privileged mode executes the software decision
 * code (tens to hundreds of cycles — the paper measures that even a
 * trivial static check doubles getpid's instruction count), but no
 * off-loading is performed, isolating the pure instrumentation cost
 * the hardware predictor eliminates.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace oscar;
    const std::vector<Cycle> costs = {50, 100, 250};

    const BenchOptions opts = BenchOptions::parse(argc, argv, "");

    std::printf("== Figure 1: runtime overhead of dynamic software "
                "instrumentation of all OS entry points ==\n\n");

    std::vector<WorkloadKind> all = serverWorkloads();
    for (WorkloadKind kind : computeWorkloads())
        all.push_back(kind);

    // Per workload: its uninstrumented baseline, then DI cost at every
    // OS entry with a threshold no invocation reaches, so decisions
    // always say "stay".
    std::vector<SweepPoint> points;
    for (WorkloadKind kind : all) {
        SystemConfig config = ExperimentRunner::baselineConfig(kind);
        points.push_back(
            sweepPoint(workloadName(kind) + "/baseline", config, false));
        config.offloadEnabled = true;
        config.policy = PolicyKind::DynamicInstrumentation;
        config.staticThreshold = 1ULL << 40;
        for (Cycle cost : costs) {
            config.diDecisionCost = cost;
            points.push_back(sweepPoint(
                workloadName(kind) + "/di=" + std::to_string(cost), config,
                false));
        }
    }
    const auto results = runSweep(points, opts, /*fork=*/false);

    TextTable table({"workload", "cost=50cy", "cost=100cy",
                     "cost=250cy"});
    auto next = results.begin();
    for (WorkloadKind kind : all) {
        const SweepPointResult &base = *next++;
        std::vector<std::string> row = {workloadName(kind)};
        for (std::size_t c = 0; c < costs.size(); ++c, ++next) {
            // Normalized runtime (>1 = slower).
            row.push_back(base.ok && next->ok
                              ? formatDouble(base.results.throughput /
                                                 next->results.throughput,
                                             3) +
                                    "x"
                              : "fail");
        }
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("normalized runtime relative to an uninstrumented "
                "baseline; the paper's Figure 1 shows the same "
                "workload-dependent slowdown, largest for the "
                "OS-intensive server workloads.\n");
    return finishSweep("fig1_instrumentation_overhead", "report", opts,
                       results);
}
