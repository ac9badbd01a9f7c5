/**
 * @file
 * Reproduces Table III: percentage of total execution time the OS core
 * is busy when running the server benchmarks with selective migration
 * at threshold N and a 5,000-cycle off-loading overhead.
 *
 * Paper values for reference:
 *               N=100    N=1,000  N=5,000  N=10,000+
 *   Apache      45.75%   37.96%   17.83%   17.68%
 *   SPECjbb2005 34.48%   33.15%   21.28%   14.79%
 *   Derby        8.2%     5.4%     1.2%     0.2%
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace oscar;
    const std::vector<InstCount> thresholds = {100, 1000, 5000, 10000};

    const BenchOptions opts = BenchOptions::parse(argc, argv, "");

    std::printf("== Table III: %% of execution time on the OS core "
                "(HI policy, 5,000-cycle off-load overhead) ==\n\n");

    std::vector<SweepPoint> points;
    for (WorkloadKind kind : serverWorkloads()) {
        for (InstCount n : thresholds) {
            SystemConfig config =
                ExperimentRunner::hardwareConfig(kind, n, 5000);
            config.warmupInstructions = 1'000'000;
            config.measureInstructions = 3'000'000;
            points.push_back(sweepPoint(
                workloadName(kind) + "/N=" + std::to_string(n),
                std::move(config), false));
        }
    }
    const auto results = runSweep(points, opts, /*fork=*/false);

    TextTable table(
        {"Benchmark", "N=100", "N=1,000", "N=5,000", "N=10,000+"});
    auto next = results.begin();
    for (WorkloadKind kind : serverWorkloads()) {
        std::vector<std::string> row = {workloadName(kind)};
        for (std::size_t i = 0; i < thresholds.size(); ++i, ++next) {
            row.push_back(
                next->ok ? formatPercent(next->results.osCoreUtilization, 2)
                         : "fail");
        }
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: Apache 45.75/37.96/17.83/17.68, "
                "SPECjbb2005 34.48/33.15/21.28/14.79, "
                "Derby 8.2/5.4/1.2/0.2\n");
    return finishSweep("table3_oscore_utilization", "report", opts,
                       results);
}
