/**
 * @file
 * Ablation: how much of the off-loading cost is user/OS coherence?
 *
 * Section V-A attributes the N=0 performance cliff to coherence
 * traffic on data the OS touches on the application's behalf. This
 * ablation scales the user-side/shared access weights of OS services
 * (SystemConfig::osCouplingScale) from the calibrated value down to
 * zero, at a fixed aggressive migration latency, showing how the
 * threshold sweep flattens as the coupling disappears — the paper's
 * interference-vs-coherence trade-off made directly measurable.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace oscar;
    const std::vector<double> couplings = {1.0, 0.5, 0.0};
    const std::vector<InstCount> thresholds = {0, 100, 1000, 10000};

    const BenchOptions opts = BenchOptions::parse(argc, argv, "");

    std::printf("== Ablation: OS/user coherence coupling (apache, "
                "100-cycle off-load) ==\n(normalized to a baseline "
                "with the same coupling)\n\n");

    // Coupling changes the workload itself, so each point normalises
    // against a coupling-matched baseline (see baselineVariant).
    std::vector<SweepPoint> points;
    for (double coupling : couplings) {
        for (InstCount n : thresholds) {
            SystemConfig config = ExperimentRunner::hardwareConfig(
                WorkloadKind::Apache, n, 100);
            config.osCouplingScale = coupling;
            config.measureInstructions = 2'000'000;
            config.warmupInstructions = 800'000;
            points.push_back(sweepPoint(
                "apache/coupling=" + formatDouble(coupling, 1) + "/N=" +
                    std::to_string(n),
                std::move(config), true));
        }
    }
    const auto results = runSweep(points, opts, /*fork=*/false);

    std::vector<std::string> headers = {"coupling"};
    for (InstCount n : thresholds)
        headers.push_back("N=" + std::to_string(n));
    TextTable table(headers);
    auto next = results.begin();
    for (double coupling : couplings) {
        std::vector<std::string> row = {formatDouble(coupling, 1)};
        for (std::size_t i = 0; i < thresholds.size(); ++i, ++next) {
            row.push_back(next->ok ? formatDouble(next->normalized, 3)
                                   : "fail");
        }
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("reading: with the calibrated coupling (1.0) the N=0 "
                "column pays the full coherence\ncost of off-loading "
                "window traps and I/O copies; with coupling removed "
                "(0.0) full\noff-loading approaches the pure "
                "cache-isolation benefit.\n");
    return finishSweep("ablation_coherence", "report", opts, results);
}
