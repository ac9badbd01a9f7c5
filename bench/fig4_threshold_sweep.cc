/**
 * @file
 * Reproduces Figure 4: normalized IPC relative to the uni-processor
 * baseline while varying the off-loading overhead (one curve per
 * one-way migration latency) and the switch trigger threshold N
 * (x-axis), one panel per workload class.
 *
 * The paper's trends to look for:
 *  1. off-loading latency dominates (lower curves for higher latency;
 *     SPECjbb never profits at 5,000 cycles);
 *  2. for each latency there is an optimal N, often as low as 100;
 *  3. N=0 loses to N=100 even at zero overhead (coherence from
 *     off-loading register-window traps that write the user stack).
 *
 * The full grid (6 workloads x 5 latencies x 6 thresholds = 180
 * simulations) runs through ParallelSweepRunner; pass --jobs N to
 * parallelize and --json PATH to choose the report artifact location.
 */

#include <cstdio>

#include "bench_common.hh"

namespace
{

using namespace oscar;

const std::vector<InstCount> kThresholds = {0,    100,  500,
                                            1000, 5000, 10000};
const std::vector<Cycle> kLatencies = {0, 100, 500, 1000, 5000};

/** Shorter runs than the default keep the full sweep under a minute
 *  per panel; the trends are stable at this length. */
constexpr InstCount kMeasure = 2'400'000;
constexpr InstCount kWarmup = 1'000'000;

struct Panel
{
    std::string title;
    std::vector<WorkloadKind> kinds;
};

const std::vector<Panel> &
panels()
{
    static const std::vector<Panel> kPanels = {
        {"apache", {WorkloadKind::Apache}},
        {"specjbb2005", {WorkloadKind::SpecJbb}},
        {"derby", {WorkloadKind::Derby}},
        {"compute (avg of blackscholes/canneal/mcf)",
         {WorkloadKind::Blackscholes, WorkloadKind::Canneal,
          WorkloadKind::Mcf}},
    };
    return kPanels;
}

/** Build the full point grid in deterministic (panel, latency, N,
 *  workload) order; rendering walks the same order. */
std::vector<SweepPoint>
buildPoints()
{
    std::vector<SweepPoint> points;
    for (const Panel &panel : panels()) {
        for (Cycle latency : kLatencies) {
            for (InstCount n : kThresholds) {
                for (WorkloadKind kind : panel.kinds) {
                    SweepPoint point;
                    point.label = workloadName(kind) + "/N=" +
                                  std::to_string(n) + "/lat=" +
                                  std::to_string(latency);
                    point.config = ExperimentRunner::hardwareConfig(
                        kind, n, latency);
                    point.config.measureInstructions = kMeasure;
                    point.config.warmupInstructions = kWarmup;
                    points.push_back(std::move(point));
                }
            }
        }
    }
    return points;
}

void
render(const std::vector<SweepPointResult> &results)
{
    std::size_t next = 0;
    for (const Panel &panel : panels()) {
        std::printf("-- %s --\n", panel.title.c_str());
        std::vector<std::string> headers = {"one-way latency"};
        for (InstCount n : kThresholds)
            headers.push_back("N=" + std::to_string(n));
        TextTable table(headers);

        for (Cycle latency : kLatencies) {
            std::vector<std::string> row = {std::to_string(latency) +
                                            " cy"};
            for (std::size_t c = 0; c < kThresholds.size(); ++c) {
                double sum = 0.0;
                bool ok = true;
                for (std::size_t k = 0; k < panel.kinds.size(); ++k) {
                    const SweepPointResult &point = results[next++];
                    if (!point.ok)
                        ok = false;
                    else
                        sum += point.normalized;
                }
                row.push_back(
                    ok ? formatDouble(sum / static_cast<double>(
                                                panel.kinds.size()),
                                      3)
                       : "fail");
            }
            table.addRow(row);
        }
        std::printf("%s\n", table.render().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace oscar;

    const BenchOptions opts = BenchOptions::parse(
        argc, argv, "fig4_threshold_sweep.sweep.json");

    std::printf("== Figure 4: normalized IPC vs threshold N, per "
                "off-load latency ==\n(1.000 = uni-processor baseline; "
                "HI predictor, single-cycle decisions)\n\n");

    std::vector<SweepPoint> points = buildPoints();
    const auto results = runSweep(points, opts, opts.fork);
    render(results);

    std::printf("trends: latency dominates; optimum N is small (100-"
                "1000) at low latency and shifts right as migration "
                "gets costlier; N=0 underperforms N=100 even at zero "
                "overhead (window-trap coherence).\n");

    return finishSweep("fig4_threshold_sweep", "report", opts, results);
}
