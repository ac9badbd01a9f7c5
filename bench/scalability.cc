/**
 * @file
 * Reproduces Section V-C: scalability of a single OS core.
 *
 * SPECjbb2005 threads on 1, 2 and 4 user cores share one OS core with
 * an off-loading threshold of N=100 and a 1,000-cycle off-loading
 * overhead. The paper observes a mean queuing delay of ~1,348 cycles
 * at 2:1 (aggregate throughput only +4.5 % over the same cores without
 * off-loading) and a queuing explosion past 25,000 cycles at 4:1 —
 * concluding that OS cores should be provisioned 1:1.
 *
 * The off-loading and matching multi-core no-off-load baselines run
 * as one sweep through ParallelSweepRunner (--jobs N).
 */

#include <cstdio>

#include "bench_common.hh"

namespace
{

using namespace oscar;

constexpr InstCount kMeasurePerThread = 900'000;

const std::vector<unsigned> kUserCores = {1, 2, 4};

/** Pairs of (off-load point, no-off-load baseline) per core count.
 *  The multi-core baseline differs from the cached uni-processor
 *  baseline, so both run as explicit non-normalized points. */
std::vector<SweepPoint>
buildPoints()
{
    std::vector<SweepPoint> points;
    for (unsigned user_cores : kUserCores) {
        const std::string cores = std::to_string(user_cores);
        SystemConfig offload = ExperimentRunner::hardwareConfig(
            WorkloadKind::SpecJbb, 100, 1000);
        SystemConfig base =
            ExperimentRunner::baselineConfig(WorkloadKind::SpecJbb);
        for (SystemConfig *config : {&offload, &base}) {
            config->userCores = user_cores;
            config->measureInstructions = kMeasurePerThread;
        }
        points.push_back(sweepPoint("specjbb/" + cores + ":1/offload",
                                    std::move(offload), false));
        points.push_back(sweepPoint("specjbb/" + cores + "cores/baseline",
                                    std::move(base), false));
    }
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace oscar;

    const BenchOptions opts =
        BenchOptions::parse(argc, argv, "scalability.sweep.json");

    std::printf("== Section V-C: sharing one OS core between user "
                "cores ==\n(SPECjbb2005, N=100, 1,000-cycle off-load "
                "overhead)\n\n");

    std::vector<SweepPoint> points = buildPoints();
    const auto results = runSweep(points, opts, opts.fork);

    TextTable table({"user:OS cores", "mean queue delay", "max",
                     "OS-core busy", "agg. throughput vs no-offload"});

    for (std::size_t i = 0; i < kUserCores.size(); ++i) {
        const SweepPointResult &offload = results[2 * i];
        const SweepPointResult &base = results[2 * i + 1];
        if (!offload.ok || !base.ok) {
            table.addRow({std::to_string(kUserCores[i]) + ":1", "fail",
                          "fail", "fail", "fail"});
            continue;
        }
        const SimResults &r = offload.results;
        table.addRow({
            std::to_string(kUserCores[i]) + ":1",
            formatDouble(r.meanQueueDelay, 0) + " cy",
            formatDouble(r.maxQueueDelay, 0) + " cy",
            formatPercent(r.osCoreUtilization, 1),
            formatDouble((r.throughput / base.results.throughput - 1.0) *
                             100.0,
                         1) +
                "%",
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: ~1,348-cycle mean queuing at 2:1 (+4.5%% "
                "aggregate), >25,000 cycles at 4:1 (throughput loss); "
                "conclusion: provision OS cores 1:1.\n");

    return finishSweep("scalability", "report", opts, results);
}
