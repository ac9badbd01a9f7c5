/**
 * @file
 * Ablation: what does the dynamic-N controller cost or buy relative
 * to an oracle static threshold?
 *
 * The Section III-B mechanism spends sampling epochs at deliberately
 * sub-optimal thresholds; this harness compares, per workload and
 * migration design point, the dynamic controller against the best
 * static N found by exhaustive sweep — quantifying the sampling
 * overhead the paper accepts in exchange for not having to know N.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace oscar;
    const std::vector<InstCount> kStatics = {0,    100,  500,
                                             1000, 5000, 10000};
    const WorkloadKind kinds[] = {WorkloadKind::Apache,
                                  WorkloadKind::SpecJbb};
    const Cycle latencies[] = {100, 5000};

    const BenchOptions opts = BenchOptions::parse(argc, argv, "");

    std::printf("== Ablation: dynamic N vs oracle static N (HI "
                "policy) ==\n\n");

    // Per (workload, latency): every static N, then the dynamic
    // controller, each normalised against its uni-processor baseline.
    std::vector<SweepPoint> points;
    for (WorkloadKind kind : kinds) {
        for (Cycle latency : latencies) {
            const auto add = [&](const std::string &what,
                                 SystemConfig config) {
                config.measureInstructions = 2'400'000;
                config.warmupInstructions = 1'000'000;
                points.push_back(sweepPoint(
                    workloadName(kind) + "/lat=" + std::to_string(latency) +
                        "/" + what,
                    std::move(config), true));
            };
            for (InstCount n : kStatics) {
                add("N=" + std::to_string(n),
                    ExperimentRunner::hardwareConfig(kind, n, latency));
            }
            add("dynamic",
                ExperimentRunner::hardwareDynamicConfig(kind, latency));
        }
    }
    const auto results = runSweep(points, opts, /*fork=*/false);

    TextTable table({"workload", "latency", "best static", "at N",
                     "dynamic", "sampling cost"});
    auto next = results.begin();
    for (WorkloadKind kind : kinds) {
        for (Cycle latency : latencies) {
            bool ok = true;
            double best = 0.0;
            InstCount best_n = 0;
            for (InstCount n : kStatics) {
                ok = ok && next->ok;
                if (next->normalized > best) {
                    best = next->normalized;
                    best_n = n;
                }
                ++next;
            }
            const double dynamic = next->normalized;
            ok = ok && (next++)->ok;
            table.addRow({
                workloadName(kind),
                std::to_string(latency) + " cy",
                ok ? formatDouble(best, 3) : "fail",
                ok ? std::to_string(best_n) : "fail",
                ok ? formatDouble(dynamic, 3) : "fail",
                ok ? formatDouble((best - dynamic) * 100.0, 1) + " pp"
                   : "fail",
            });
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("'sampling cost' is the throughput the epoch-based "
                "search gives up relative to an\noracle that knows "
                "the optimal N in advance — the price of the paper's "
                "claim that no\nper-configuration tuning is needed.\n");
    return finishSweep("ablation_dynamic_n", "report", opts, results);
}
