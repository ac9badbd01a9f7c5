/**
 * @file
 * Reproduces Figure 3: binary prediction hit rate of the run-length
 * predictor for various core-migration trigger thresholds N.
 *
 * A binary prediction is correct when "predicted length > N" matches
 * "actual length > N". Register-window spill/fill traps are excluded,
 * as in the paper's de-skewed figures. Paper reference points at
 * N=500: Apache 94.8 %, SPECjbb2005 93.4 %, Derby 96.8 %, compute
 * average 99.6 %.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace oscar;
    const std::vector<InstCount> &thresholds =
        PredictorStats::defaultThresholds();

    const BenchOptions opts = BenchOptions::parse(argc, argv, "");

    std::printf("== Figure 3: binary prediction hit rate vs trigger "
                "threshold N ==\n\n");

    // The HI predictor active but an unreachable threshold, so the
    // predictor trains and is scored without off-loading perturbing
    // the workload.
    std::vector<WorkloadKind> all = serverWorkloads();
    for (WorkloadKind kind : computeWorkloads())
        all.push_back(kind);
    std::vector<SweepPoint> points;
    for (WorkloadKind kind : all) {
        SystemConfig config = ExperimentRunner::baselineConfig(kind);
        config.offloadEnabled = true;
        config.policy = PolicyKind::HardwarePredictor;
        config.staticThreshold = 1ULL << 40;
        // The paper warms 50 M instructions before measuring; use a
        // proportionally long warmup so the predictor tables are
        // trained before accuracy is scored (compute workloads invoke
        // few syscalls, so cold-start otherwise dominates their stats).
        config.warmupInstructions = 1'500'000;
        config.measureInstructions = 3'000'000;
        points.push_back(
            sweepPoint(workloadName(kind), std::move(config), false));
    }
    const auto results = runSweep(points, opts, /*fork=*/false);

    std::vector<std::string> headers = {"workload"};
    for (InstCount n : thresholds)
        headers.push_back("N=" + std::to_string(n));
    TextTable table(headers);
    // One row per server workload, then the compute-bound group's
    // six benchmarks merged into one.
    const std::size_t servers = serverWorkloads().size();
    for (std::size_t first = 0; first < results.size();) {
        const std::size_t last = first < servers ? first + 1 : results.size();
        std::vector<std::string> row = {
            first < servers ? points[first].label : "compute (avg)"};
        PredictorStats merged;
        bool ok = true;
        for (; first < last; ++first) {
            ok = ok && results[first].ok;
            merged.merge(results[first].results.accuracy);
        }
        for (std::size_t i = 0; i < thresholds.size(); ++i)
            row.push_back(ok ? formatPercent(merged.binaryAccuracy(i), 1)
                             : "fail");
        table.addRow(row);
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("paper at N=500: apache 94.8%%, specjbb2005 93.4%%, "
                "derby 96.8%%, compute avg 99.6%%\n");
    return finishSweep("fig3_binary_prediction", "report", opts, results);
}
