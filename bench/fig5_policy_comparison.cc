/**
 * @file
 * Reproduces Figure 5: normalized throughput (relative to the
 * uni-processor baseline) of the three decision policies —
 *
 *  SI (static instrumentation): off-line profiling instruments only
 *     services whose mean run length is at least twice the migration
 *     latency; instrumented entries pay a small software cost and
 *     always off-load (Chakraborty et al. style);
 *  DI (dynamic instrumentation): every OS entry point carries the
 *     decision code in software (Mogul et al. style, extended to all
 *     entries) — same decision quality as HI, much higher cost;
 *  HI (hardware instrumentation): the paper's predictor, 1-cycle
 *     decisions;
 *
 * at the Conservative (5,000-cycle) and Aggressive (100-cycle)
 * migration design points, with the dynamic-N controller driving
 * DI and HI. Also reproduces the Section V-B aside: an off-loading
 * system with two *512 KB* L2s beats the 1 MB-L2 baseline only when
 * the off-load latency is under ~1,000 cycles.
 *
 * All comparison and aside points run through ParallelSweepRunner
 * (--jobs N); SI profiling passes run up front, once per workload.
 */

#include <cstdio>
#include <map>

#include "bench_common.hh"

namespace
{

using namespace oscar;

constexpr InstCount kMeasure = 3'000'000;
constexpr InstCount kWarmup = 1'200'000;

const std::vector<Cycle> kDesignPoints = {5000, 100};
const std::vector<Cycle> kAsideLatencies = {100, 500, 1000, 2500,
                                            5000};

std::vector<WorkloadKind>
comparisonWorkloads()
{
    std::vector<WorkloadKind> kinds = serverWorkloads();
    kinds.push_back(WorkloadKind::Mcf); // compute representative
    return kinds;
}

SweepPoint
sized(std::string label, SystemConfig config)
{
    config.measureInstructions = kMeasure;
    config.warmupInstructions = kWarmup;
    return sweepPoint(std::move(label), std::move(config), true);
}

/** Points in (design point, workload, SI/DI/HI) order, then the
 *  split-cache aside; rendering walks the same order. */
std::vector<SweepPoint>
buildPoints(
    const std::map<WorkloadKind,
                   std::shared_ptr<const ServiceProfile>> &profiles)
{
    std::vector<SweepPoint> points;
    for (Cycle latency : kDesignPoints) {
        for (WorkloadKind kind : comparisonWorkloads()) {
            const std::string base =
                workloadName(kind) + "/lat=" + std::to_string(latency);
            points.push_back(
                sized(base + "/si",
                      ExperimentRunner::staticInstrConfig(
                          kind, latency, profiles.at(kind))));
            points.push_back(
                sized(base + "/di",
                      ExperimentRunner::dynamicInstrConfig(kind, latency,
                                                           100)));
            points.push_back(
                sized(base + "/hi",
                      ExperimentRunner::hardwareDynamicConfig(kind,
                                                              latency)));
        }
    }
    for (Cycle latency : kAsideLatencies) {
        SystemConfig config = ExperimentRunner::hardwareConfig(
            WorkloadKind::Apache, 100, latency);
        config.geometry.l2.sizeBytes = 512 * 1024;
        points.push_back(sized("apache/512KB-l2/lat=" +
                                   std::to_string(latency),
                               std::move(config)));
    }
    return points;
}

std::string
cell(const SweepPointResult &point)
{
    return point.ok ? formatDouble(point.normalized, 3) : "fail";
}

void
render(const std::vector<SweepPointResult> &results)
{
    std::size_t next = 0;
    for (Cycle latency : kDesignPoints) {
        std::printf("-- %s (one-way latency %llu cycles) --\n",
                    latency >= 1000 ? "Conservative" : "Aggressive",
                    static_cast<unsigned long long>(latency));
        TextTable table({"workload", "SI", "DI", "HI"});
        for (WorkloadKind kind : comparisonWorkloads()) {
            const std::string si = cell(results[next++]);
            const std::string di = cell(results[next++]);
            const std::string hi = cell(results[next++]);
            table.addRow({workloadName(kind), si, di, hi});
        }
        std::printf("%s\n", table.render().c_str());
    }

    std::printf("-- Section V-B aside: two 512 KB L2s vs one 1 MB L2 "
                "baseline (apache, HI, N=100) --\n");
    TextTable table({"one-way latency", "normalized throughput"});
    for (Cycle latency : kAsideLatencies) {
        table.addRow({std::to_string(latency) + " cy",
                      cell(results[next++])});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: the halved-L2 off-loading system only beats "
                "the baseline when the off-load latency is under "
                "~1,000 cycles.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace oscar;

    const BenchOptions opts = BenchOptions::parse(
        argc, argv, "fig5_policy_comparison.sweep.json");

    std::printf("== Figure 5: normalized throughput, static vs dynamic "
                "instrumentation vs hardware predictor ==\n(1.000 = "
                "uni-processor baseline; dynamic N for DI/HI)\n\n");

    // SI needs an off-line profile; collect one short profiling pass
    // per workload before the sweep.
    std::map<WorkloadKind, std::shared_ptr<const ServiceProfile>>
        profiles;
    for (WorkloadKind kind : comparisonWorkloads())
        profiles[kind] = ExperimentRunner::profileServices(kind);

    std::vector<SweepPoint> points = buildPoints(profiles);
    const auto results = runSweep(points, opts, opts.fork);
    render(results);

    std::printf("paper headline: HI up to 18%% over the no-off-load "
                "baseline, ~13%% over SI, ~23%% over DI at currently "
                "achievable latencies; the gap over software grows as "
                "migration gets faster.\n");

    return finishSweep("fig5_policy_comparison", "report", opts, results);
}
