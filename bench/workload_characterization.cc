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

#include <cstdio>
#include <vector>

#include "system/experiment.hh"

int
main()
{
    using namespace oscar;

    std::printf("== Workload characterization (uni-processor baseline) "
                "==\n\n");

    TextTable table({"workload", "IPC", "priv%", "L1D%", "L1I%", "L2%",
                     "inv/Minst", "mean-len", ">100", ">1k", ">5k",
                     ">10k"});

    std::vector<WorkloadKind> all = serverWorkloads();
    for (WorkloadKind kind : computeWorkloads())
        all.push_back(kind);

    for (WorkloadKind kind : all) {
        SystemConfig config = ExperimentRunner::baselineConfig(kind);
        System system(config);
        const SimResults results = system.run();
        const CoreMemStats memstats = system.measuredMemStats(0);

        table.addRow({
            results.workload,
            formatDouble(results.throughput, 3),
            formatDouble(results.privFraction * 100.0, 1),
            formatDouble(memstats.l1d.ratio() * 100.0, 1),
            formatDouble(memstats.l1i.ratio() * 100.0, 1),
            formatDouble(memstats.l2HitRate() * 100.0, 1),
            formatDouble(results.invocations * 1e6 /
                             static_cast<double>(results.retired),
                         0),
            formatDouble(results.meanInvocationLength, 0),
            formatDouble(results.osShareAbove[0] * 100.0, 1),
            formatDouble(results.osShareAbove[1] * 100.0, 1),
            formatDouble(results.osShareAbove[2] * 100.0, 1),
            formatDouble(results.osShareAbove[3] * 100.0, 1),
        });
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Columns '>N' give the share of *all* retired "
                "instructions spent inside OS invocations longer than\n"
                "N instructions — the instruction-count ceiling on "
                "Table III's OS-core utilization at that N.\n");
    return 0;
}
