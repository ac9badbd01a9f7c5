/**
 * @file
 * Example: run a small threshold sweep on all cores and write a
 * machine-readable JSON report.
 *
 *   ./example_parallel_sweep [report-path]
 *
 * Demonstrates the three pieces the bench binaries compose:
 * ParallelSweepRunner (thread-pool execution with failure isolation),
 * normalized throughput (each baseline run once per sweep and shared
 * by every point that needs it), and SweepReport (the oscar.sweep.v1
 * JSON artifact).
 */

#include <cstdio>

#include "system/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace oscar;

    const std::string report_path =
        argc > 1 ? argv[1] : "parallel_sweep_example.sweep.json";

    // A small grid: apache under two migration latencies and four
    // thresholds. Short runs keep the example under a few seconds.
    std::vector<SweepPoint> points;
    for (Cycle latency : {Cycle(100), Cycle(5000)}) {
        for (InstCount n : {InstCount(0), InstCount(100),
                            InstCount(1000), InstCount(10000)}) {
            SweepPoint point;
            point.label = "apache/N=" + std::to_string(n) + "/lat=" +
                          std::to_string(latency);
            point.config = ExperimentRunner::hardwareConfig(
                WorkloadKind::Apache, n, latency);
            point.config.warmupInstructions = 200'000;
            point.config.measureInstructions = 600'000;
            points.push_back(std::move(point));
        }
    }

    SweepOptions options;
    options.jobs = 0; // all hardware threads
    ParallelSweepRunner runner(options);
    const auto results = runner.run(points);

    std::printf("%-28s %-12s %-10s\n", "point", "normalized",
                "wall ms");
    for (const SweepPointResult &point : results) {
        if (!point.ok) {
            std::printf("%-28s failed: %s\n", point.label.c_str(),
                        point.error.c_str());
            continue;
        }
        std::printf("%-28s %-12s %-10s\n", point.label.c_str(),
                    formatDouble(point.normalized, 3).c_str(),
                    formatDouble(point.wallMs, 1).c_str());
    }

    SweepReport report("parallel_sweep_example",
                       runner.effectiveJobs(points.size()));
    report.addAll(results);
    if (report.writeTo(report_path))
        std::printf("\nwrote %s\n", report_path.c_str());
    return 0;
}
