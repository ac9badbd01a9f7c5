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

#include "system/experiment.hh"

namespace
{

using namespace oscar;

/** Normalized runtime (>1 = slower) with DI cost at every OS entry. */
double
overheadFor(WorkloadKind kind, Cycle di_cost)
{
    SystemConfig config = ExperimentRunner::baselineConfig(kind);
    config.offloadEnabled = true;
    config.policy = PolicyKind::DynamicInstrumentation;
    config.diDecisionCost = di_cost;
    // A threshold no invocation reaches: decisions always say "stay".
    config.staticThreshold = 1ULL << 40;
    const SimResults base = ExperimentRunner::baselineResults(config);
    const SimResults di = ExperimentRunner::run(config);
    return base.throughput / di.throughput;
}

} // namespace

int
main()
{
    using namespace oscar;
    const std::vector<Cycle> costs = {50, 100, 250};

    std::printf("== Figure 1: runtime overhead of dynamic software "
                "instrumentation of all OS entry points ==\n\n");

    TextTable table({"workload", "cost=50cy", "cost=100cy",
                     "cost=250cy"});
    std::vector<WorkloadKind> all = serverWorkloads();
    for (WorkloadKind kind : computeWorkloads())
        all.push_back(kind);

    for (WorkloadKind kind : all) {
        std::vector<std::string> row = {workloadName(kind)};
        for (Cycle cost : costs) {
            const double overhead = overheadFor(kind, cost);
            row.push_back(formatDouble(overhead, 3) + "x");
        }
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("normalized runtime relative to an uninstrumented "
                "baseline; the paper's Figure 1 shows the same "
                "workload-dependent slowdown, largest for the "
                "OS-intensive server workloads.\n");
    return 0;
}
