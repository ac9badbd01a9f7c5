/**
 * @file
 * Helpers shared by the bench binaries: building and running a
 * bench's sweep points, the report-and-exit tail every simulating
 * bench ends with, and the --tiny flag, serving front-end and
 * span-phase rows of the two serving benches.
 */

#ifndef OSCAR_BENCH_BENCH_COMMON_HH_
#define OSCAR_BENCH_BENCH_COMMON_HH_

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "system/sweep.hh"

namespace oscar
{

/** A point running `config` as `label` (see SweepPoint::normalize). */
inline SweepPoint
sweepPoint(std::string label, SystemConfig config, bool normalize)
{
    SweepPoint point;
    point.label = std::move(label);
    point.config = std::move(config);
    point.normalize = normalize;
    return point;
}

/**
 * Point the sweep's artifact files at the options' paths and run it on
 * opts.jobs workers; `fork` as SweepOptions::fork.
 */
inline std::vector<SweepPointResult>
runSweep(std::vector<SweepPoint> &points, const BenchOptions &opts,
         bool fork)
{
    applySweepArtifactPaths(points, opts);
    return ParallelSweepRunner({opts.jobs, fork}).run(points);
}

/**
 * Write the sweep report when the options ask for one, print
 * "<line>: PATH (N points)", and return the bench's exit status
 * (see sweepExitStatus).
 */
inline int
finishSweep(const char *title, const char *line, const BenchOptions &opts,
            const std::vector<SweepPointResult> &results)
{
    bool report_written = true;
    if (!opts.jsonPath.empty()) {
        SweepReport report(title, ParallelSweepRunner({opts.jobs})
                                      .effectiveJobs(results.size()));
        report.addAll(results);
        report_written = report.writeTo(opts.jsonPath);
        if (report_written) {
            std::printf("%s: %s (%zu points)\n", line,
                        opts.jsonPath.c_str(), report.size());
        }
    }
    return sweepExitStatus(results, report_written);
}

/**
 * Parse the shared bench options plus --tiny (CI smoke scale), which
 * the serving benches take on top of them.
 */
inline BenchOptions
parseServingOptions(int argc, char **argv,
                    const std::string &default_json, bool &tiny)
{
    tiny = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--tiny") == 0) {
            tiny = true;
            continue;
        }
        args.push_back(argv[i]);
    }
    return BenchOptions::parse(static_cast<int>(args.size()),
                               args.data(), default_json);
}

/** Open-loop client fleet shared by every point of a serving bench. */
inline std::shared_ptr<const ServingConfig>
makeServing(double mean_interarrival, DispatchPolicy dispatch, bool tiny)
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->dispatch = dispatch;
    serving->meanInterarrivalCycles = mean_interarrival;
    serving->diurnalAmplitude = 0.3;
    serving->diurnalPeriodCycles = 2'000'000;
    serving->burstProbability = 0.02;
    serving->burstRateMultiplier = 3.0;
    serving->burstMeanRequests = 16.0;
    serving->tenants = 64;
    serving->tenantSkew = 0.99;
    serving->meanSegments = 3.0;
    serving->segmentsSigma = 0.5;
    serving->warmupRequests = tiny ? 40 : 150;
    serving->measureRequests = tiny ? 150 : 1'000;
    return serving;
}

/** Headers for the per-phase attribution table: a label column plus
 * one column per span phase, in schema order. */
inline std::vector<std::string>
phaseHeaders(const char *label)
{
    std::vector<std::string> headers = {label};
    for (std::size_t p = 0; p < kNumSpanPhases; ++p)
        headers.push_back(spanPhaseName(static_cast<SpanPhase>(p)));
    return headers;
}

/** A row of the attribution table: the label, then the p99 of each
 * phase of one cell's merged span aggregates. */
inline std::vector<std::string>
phaseP99Row(const char *label, const SimResults &r)
{
    std::vector<std::string> cells = {label};
    for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
        cells.push_back(r.spans == nullptr
                            ? "-"
                            : std::to_string(
                                  r.spans->phase[p].quantile(0.99)));
    }
    return cells;
}

} // namespace oscar

#endif // OSCAR_BENCH_BENCH_COMMON_HH_
