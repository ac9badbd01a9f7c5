/**
 * @file
 * Workload characterization report (Section II "Benchmarks" and the
 * calibration basis for every other experiment).
 *
 * For each benchmark, runs the uni-processor baseline and prints the
 * observable structure the paper's results depend on: IPC, privileged
 * instruction fraction, cache hit rates, OS invocation rate and
 * run-length distribution, and the share of OS *time* above each
 * off-load threshold N (the quantity behind Table III).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace oscar;

    const BenchOptions opts = BenchOptions::parse(argc, argv, "");

    std::printf("== Workload characterization (uni-processor baseline) "
                "==\n\n");

    std::vector<WorkloadKind> all = serverWorkloads();
    for (WorkloadKind kind : computeWorkloads())
        all.push_back(kind);
    std::vector<SweepPoint> points;
    for (WorkloadKind kind : all) {
        points.push_back(sweepPoint(workloadName(kind),
                                    ExperimentRunner::baselineConfig(kind),
                                    false));
    }
    const auto results = runSweep(points, opts, /*fork=*/false);

    TextTable table({"workload", "IPC", "priv%", "L1D%", "L1I%", "L2%",
                     "inv/Minst", "mean-len", ">100", ">1k", ">5k",
                     ">10k"});
    for (const SweepPointResult &point : results) {
        const SimResults &r = point.results;
        std::vector<std::string> row = {
            point.label,
            formatDouble(r.throughput, 3),
            formatDouble(r.privFraction * 100.0, 1),
            formatDouble(r.userL1dHitRate * 100.0, 1),
            formatDouble(r.userL1iHitRate * 100.0, 1),
            formatDouble(r.userL2HitRate * 100.0, 1),
            formatDouble(r.invocations * 1e6 /
                             static_cast<double>(r.retired), 0),
            formatDouble(r.meanInvocationLength, 0),
            formatDouble(r.osShareAbove[0] * 100.0, 1),
            formatDouble(r.osShareAbove[1] * 100.0, 1),
            formatDouble(r.osShareAbove[2] * 100.0, 1),
            formatDouble(r.osShareAbove[3] * 100.0, 1),
        };
        if (!point.ok)
            std::fill(row.begin() + 1, row.end(), "fail");
        table.addRow(std::move(row));
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Columns '>N' give the share of *all* retired "
                "instructions spent inside OS invocations longer than\n"
                "N instructions — the instruction-count ceiling on "
                "Table III's OS-core utilization at that N.\n");
    return finishSweep("workload_characterization", "report", opts,
                       results);
}
