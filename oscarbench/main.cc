/**
 * @file
 * oscarbench: the repository's end-to-end benchmark program.
 *
 *   oscarbench --workload paper_repro|serving_numa|observed_serving
 *              [--seed N] [--seconds S] [--trace 0|1]
 *              [--tiny] [--out DIR] [--commit ID]
 *
 * Every sweep runs on sweepJobs() workers: two, or one on a one-core
 * host.
 *
 * Untraced (--trace 0): set up the workload repeatedly (SI profiling +
 * point construction), then run its sweep through ParallelSweepRunner
 * repeatedly for S seconds (at least two sweeps), clearing the
 * baseline and warm-snapshot caches before each one so every sweep
 * pays the warm-up and baseline simulations a bench invocation pays.
 * Reports medians over the repetitions.
 *
 * Traced (--trace 1): one sweep through the runner as the reference,
 * then the same points driven step by step through System /
 * ExperimentRunner (baseline, warm, clone, reconfigure, resume, write,
 * merge, report) with a span around every call, then the layer probes
 * (layers.hh). Reports per-layer metrics, and as the tracing overhead
 * the step-by-step sweep's wall time with spans minus without.
 *
 * The step-by-step sweep repeats part of src/system/sweep.cc, which
 * keeps these steps internal. Each helper below names what it mirrors:
 *   forkEligible     - forkEligible() in sweep.cc
 *   replicaSubPoint  - replicaSubPoint() in sweep.cc
 *   baselineKey      - baselineCacheKey() in experiment.cc
 *   tracedPoint      - ParallelSweepRunner::runPoint()
 *   mergeTraced      - mergeReplicaPoint() in sweep.cc
 *   tracedSweep      - ParallelSweepRunner::run() with warmSnapshot()
 *   parallelFor      - the worker loop of ParallelSweepRunner::run()
 * The traced results must equal the runner's (an output check), so a
 * change to the runner that these copies miss fails the traced run.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 */

#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "layers.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/span.hh"
#include "sim/trace.hh"
#include "system/metrics_capture.hh"
#include "system/span_capture.hh"
#include "system/trace_capture.hh"
#include "workloads.hh"

#ifndef OSCARBENCH_BUILD_TYPE
#define OSCARBENCH_BUILD_TYPE "unknown"
#endif

namespace oscarbench
{
namespace
{

using namespace oscar;

struct Options
{
    WorkloadId workload = WorkloadId::PaperRepro;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *error)
{
    std::fprintf(stderr,
                 "oscarbench: %s\nusage: oscarbench --workload "
                 "paper_repro|serving_numa|observed_serving [--seed N] "
                 "[--seconds S] [--trace 0|1] [--tiny] "
                 "[--out DIR] [--commit ID]\n",
                 error);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            opts.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            if (!parseWorkload(value, opts.workload))
                usage(("unknown workload " + value).c_str());
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opts.trace = std::strtoul(value.c_str(), &end, 10) != 0;
        } else if (arg == "--out") {
            opts.outDir = value;
        } else if (arg == "--commit") {
            opts.commit = value;
        } else {
            usage(("unknown flag " + arg).c_str());
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            usage(("bad value for " + arg).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (opts.seconds < 0.0)
        usage("--seconds must be >= 0");
    return opts;
}

/** Sweep worker threads: two, within the host's core count. */
unsigned
sweepJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** What the run ran: seed, commit, compiler, build, host, workers. */
std::string
stampJson(const Options &opts)
{
    JsonWriter w;
    w.beginObject();
    w.field("workload", workloadIdName(opts.workload));
    w.field("seed", opts.seed);
    w.field("commit", opts.commit);
    w.field("compiler", std::string("gcc ") + __VERSION__);
    w.field("build_type", OSCARBENCH_BUILD_TYPE);
    w.field("nproc", std::thread::hardware_concurrency());
    w.field("jobs", sweepJobs());
    w.field("seconds", opts.seconds);
    w.field("trace", opts.trace);
    w.field("tiny", opts.tiny);
    w.endObject();
    return w.str();
}

void
clearCaches()
{
    ExperimentRunner::clearBaselineCache();
    ParallelSweepRunner::clearWarmSnapshotCache();
}

void
resetDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

/** A named metric with its unit, printed in order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("-- %s --\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    JsonWriter w;
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

void
printResult(const CheckTally &tally, const std::vector<Metric> &metrics)
{
    for (const std::string &failure : tally.failures)
        std::printf("check failed: %s\n", failure.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metricsJson(metrics).c_str());
}

/** Run `body(i)` for i in [0, n) on up to sweepJobs() threads. */
template <typename F>
void
parallelFor(std::size_t n, F &&body)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
            body(i);
    };
    const std::size_t threads = std::min<std::size_t>(sweepJobs(), n);
    if (threads <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();
}

// ---------------------------------------------------------------------
// Untraced sweeps

/** One timed sweep's outcome. */
struct SweepRep
{
    std::vector<SweepPointResult> results;
    double wallS = 0.0;
};

SweepRep
timedSweep(const Setup &setup, const std::string &artifacts)
{
    clearCaches();
    if (setup.id == WorkloadId::ObservedServing)
        resetDir(artifacts);
    const ParallelSweepRunner runner({sweepJobs(), /*fork=*/true});
    SweepRep rep;
    const Clock::time_point start = Clock::now();
    rep.results = runner.run(setup.points);
    rep.wallS = secondsSince(start);
    return rep;
}

std::uint64_t
retiredSum(const std::vector<SweepPointResult> &results)
{
    std::uint64_t retired = 0;
    for (const SweepPointResult &point : results)
        retired += point.ok ? point.results.retired : 0;
    return retired;
}

std::uint64_t
requestSum(const std::vector<SweepPointResult> &results)
{
    std::uint64_t requests = 0;
    for (const SweepPointResult &point : results)
        requests += point.ok ? point.results.requestsCompleted : 0;
    return requests;
}

/** Output checks of one sweep; returns artifact bytes. */
std::uint64_t
checkSweep(const Setup &setup, const std::vector<SweepPointResult> &results,
           CheckTally &tally)
{
    checkResults(results, tally);
    if (setup.id == WorkloadId::ObservedServing)
        return checkArtifacts(setup, results, tally);
    return 0;
}

int
runUntraced(const Options &opts)
{
    const std::string artifacts = opts.outDir + "/artifacts";
    const int min_reps = opts.tiny ? 1 : 2;

    // Set-up is deterministic and short (tens of milliseconds), so it
    // repeats for a steady median: in blocks of a second (at least five
    // builds), one before each of the first kSetupBlocks sweeps, so the
    // builds sample the host across the run as the sweeps do. The first
    // build's points are the ones swept.
    constexpr int kSetupBlocks = 3;
    std::vector<double> setup_s;
    auto setUp = [&]() {
        Setup built;
        const Clock::time_point block_start = Clock::now();
        for (int builds = 0;
             builds == 0 || (!opts.tiny && (builds < 5 ||
                                            secondsSince(block_start) < 1.0));
             ++builds) {
            const Clock::time_point start = Clock::now();
            built = buildSetup(opts.workload, opts.seed, opts.tiny,
                               artifacts, nullptr, Tracer::kRoot);
            setup_s.push_back(secondsSince(start));
        }
        return built;
    };
    const Setup setup = setUp();

    CheckTally tally;
    std::vector<double> wall_s, minst_per_s, req_per_s, p50_ms, p90_ms,
        artifact_mb;
    std::uint64_t digest = 0;
    const Clock::time_point measure_start = Clock::now();
    // Sweep while another sweep of median length still fits in the
    // measuring window, and at least min_reps times.
    for (int rep = 0; rep < min_reps ||
                      secondsSince(measure_start) + median(wall_s) <=
                          opts.seconds;
         ++rep) {
        if (rep > 0 && rep < kSetupBlocks)
            setUp();
        const SweepRep sweep = timedSweep(setup, artifacts);
        const std::uint64_t bytes = checkSweep(setup, sweep.results, tally);
        const std::uint64_t rep_digest = resultsDigest(sweep.results);
        if (rep == 0)
            digest = rep_digest;
        tally.check(rep_digest == digest,
                    "sweep results differ between repetitions");

        std::printf("sweep %d: %.3f s\n", rep, sweep.wallS);
        std::vector<double> point_ms;
        for (const SweepPointResult &point : sweep.results)
            point_ms.push_back(point.wallMs);
        wall_s.push_back(sweep.wallS);
        minst_per_s.push_back(
            static_cast<double>(retiredSum(sweep.results)) / 1e6 /
            sweep.wallS);
        req_per_s.push_back(static_cast<double>(requestSum(sweep.results)) /
                            sweep.wallS);
        p50_ms.push_back(quantile(point_ms, 0.5));
        p90_ms.push_back(quantile(point_ms, 0.9));
        artifact_mb.push_back(static_cast<double>(bytes) / 1e6);

        if (rep == 0 && setup.id == WorkloadId::PaperRepro) {
            const Accuracy acc = paperAccuracy(sweep.results);
            printMetrics("paper accuracy (first sweep)",
                         {{"table3_err_pp", acc.table3ErrPp, "pp"},
                          {"predictor_err_pp", acc.predictorErrPp, "pp"},
                          {"paper_claims_failed",
                           static_cast<double>(acc.claimsFailed), "count"}});
            for (const std::string &claim : acc.violated)
                std::printf("  violated: %s\n", claim.c_str());
        }
    }
    if (setup.id == WorkloadId::ObservedServing)
        std::filesystem::remove_all(artifacts);

    std::vector<Metric> info = {
        {"fail_ratio",
         static_cast<double>(tally.failed) /
             static_cast<double>(tally.attempted),
         "ratio"},
        {"points", static_cast<double>(setup.points.size()), "count"},
        {"sweeps", static_cast<double>(wall_s.size()), "count"},
        {"sim_req_per_s", median(req_per_s), "req/s"},
    };
    if (setup.points.size() >= 100)
        info.push_back({"point_ms_p90", median(p90_ms), "ms"});
    if (setup.id == WorkloadId::ObservedServing)
        info.push_back({"artifact_mb", median(artifact_mb), "MB"});
    printMetrics("workload-specific metrics (medians over sweeps)", info);
    std::printf("digest: %016llx (sweepPointResultsJson, informational)\n",
                static_cast<unsigned long long>(digest));

    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s"},
        {"wall_s", median(wall_s), "s"},
        {"sim_minst_per_s", median(minst_per_s), "Minst/s"},
        {"point_ms_p50", median(p50_ms), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    printMetrics("end-to-end metrics (medians over sweeps)", metrics);
    printResult(tally, metrics);
    return 0;
}

// ---------------------------------------------------------------------
// Traced run: the sweep driven call by call

/** Mirrors the runner's fork-eligibility rule (see sweep.cc). */
bool
forkEligible(const SweepPoint &point)
{
    if (!point.tracePath.empty() || !point.metricsPath.empty() ||
        point.recordSpans || !point.spansPath.empty())
        return false;
    if (point.config.serving != nullptr)
        return point.config.serving->warmupRequests > 0;
    return point.config.warmupInstructions > 0;
}

/** The one-seed sub-point a replica runs as (mirrors the runner). */
SweepPoint
replicaSubPoint(const SweepPoint &point, std::size_t replica)
{
    SweepPoint sub = point;
    sub.replicaSeeds.clear();
    sub.config.seed = point.replicaSeeds[replica];
    if (!sub.tracePath.empty())
        sub.tracePath = sweepReplicaPath(point.tracePath, replica);
    if (!sub.metricsPath.empty())
        sub.metricsPath = sweepReplicaPath(point.metricsPath, replica);
    if (!sub.spansPath.empty())
        sub.spansPath = sweepReplicaPath(point.spansPath, replica);
    return sub;
}

/** Key under which the baseline cache stores a point's baseline. */
std::string
baselineKey(const SystemConfig &config)
{
    std::string key;
    appendConfigEnvironmentKey(key, config);
    key += " meas=" + std::to_string(config.measureInstructions);
    if (config.serving != nullptr)
        key += " s.meas=" + std::to_string(config.serving->measureRequests);
    return key;
}

/** Run one sub-point: fork from its group's snapshot or run fresh. */
SweepPointResult
tracedPoint(const SweepPoint &point, std::size_t index,
            const std::shared_ptr<const System> &snapshot, Tracer *tracer,
            std::uint64_t parent)
{
    Span span(tracer, "point", parent);
    SweepPointResult result;
    result.index = index;
    result.label = point.label;
    result.config = point.config;
    const Clock::time_point start = Clock::now();
    try {
        ScopedFatalThrows fatal_throws;
        if (forkEligible(point)) {
            if (snapshot == nullptr)
                throw std::runtime_error("warm-up failed");
            std::unique_ptr<System> forked;
            {
                Span s(tracer, "clone", span.id());
                forked = snapshot->clone();
            }
            {
                Span s(tracer, "reconfigure", span.id());
                forked->reconfigureForMeasurement(point.config);
            }
            Span s(tracer, "resume", span.id());
            result.results = forked->resumeRun();
        } else {
            std::unique_ptr<JsonlTraceSink> trace;
            std::unique_ptr<MetricRegistry> metrics;
            std::unique_ptr<SpanRecorder> spans;
            std::unique_ptr<System> system;
            {
                Span s(tracer, "warm", span.id());
                if (!point.tracePath.empty()) {
                    trace = std::make_unique<JsonlTraceSink>(
                        point.tracePath, traceHeaderJson(point.config));
                }
                if (!point.metricsPath.empty()) {
                    metrics = std::make_unique<MetricRegistry>(
                        point.metricsSampleEvery);
                }
                if (point.recordSpans || !point.spansPath.empty())
                    spans = std::make_unique<SpanRecorder>(
                        point.spanExemplars);
                system = std::make_unique<System>(point.config);
                system->setTraceSink(trace.get());
                if (metrics)
                    system->setMetricRegistry(metrics.get());
                system->setSpanRecorder(spans.get());
                system->runToMeasurementStart();
            }
            {
                Span s(tracer, "resume", span.id());
                result.results = system->resumeRun();
            }
            Span s(tracer, "write", span.id());
            trace.reset();
            if (metrics && writeMetricsFile(*metrics, point.config,
                                            point.metricsPath))
                result.metricsPath = point.metricsPath;
            if (spans && !point.spansPath.empty() &&
                writeSpansFile(spans->results(), point.config,
                               point.spansPath))
                result.spansPath = point.spansPath;
        }
        if (point.normalize) {
            const SimResults base =
                ExperimentRunner::baselineResults(point.config);
            result.normalized = result.results.throughput / base.throughput;
        }
        result.ok = true;
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    }
    result.wallMs = 1e3 * secondsSince(start);
    return result;
}

/** Fold a sharded point's replicas (mirrors the runner's merge). */
SweepPointResult
mergeTraced(const SweepPoint &point, std::size_t index,
            std::vector<SweepPointResult> &&replicas)
{
    SweepPointResult merged;
    merged.index = index;
    merged.label = point.label;
    merged.config = point.config;
    merged.replicaSeeds = point.replicaSeeds;
    merged.ok = true;
    std::vector<SimResults> sims;
    double normalized_sum = 0.0;
    unsigned normalized_count = 0;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        SweepPointResult &rep = replicas[r];
        merged.wallMs += rep.wallMs;
        if (!rep.ok) {
            if (merged.ok) {
                merged.ok = false;
                merged.error = "replica seed " +
                               std::to_string(point.replicaSeeds[r]) +
                               ": " + rep.error;
            }
            continue;
        }
        if (merged.metricsPath.empty())
            merged.metricsPath = rep.metricsPath;
        if (merged.spansPath.empty())
            merged.spansPath = rep.spansPath;
        if (rep.normalized > 0.0) {
            normalized_sum += rep.normalized;
            ++normalized_count;
        }
        sims.push_back(std::move(rep.results));
    }
    if (merged.ok)
        merged.results = mergeReplicaResults(sims);
    if (normalized_count > 0)
        merged.normalized = normalized_sum / normalized_count;
    return merged;
}

/** A traced sweep's results and its per-layer system metrics. */
struct ChainOutcome
{
    std::vector<SweepPointResult> results;
    double wallS = 0.0;
    std::size_t warmGroups = 0;
    /** system.* metrics this chain produced samples for. */
    std::map<std::string, double> metrics;
};

/**
 * Drive `points` through the same steps ParallelSweepRunner takes —
 * baselines, one warm-up per fork group, clone + reconfigure + resume
 * (or a fresh warm + resume + write), replica merge, report — with a
 * span around each call when `tracer` is not null.
 */
ChainOutcome
tracedSweep(const std::vector<SweepPoint> &points, Tracer *tracer,
            std::uint64_t parent)
{
    clearCaches();
    ChainOutcome out;
    Span sweep(tracer, "sweep", parent);
    const Clock::time_point start = Clock::now();

    struct SubJob
    {
        std::size_t point;
        std::size_t replica;
        SweepPoint sub;
    };
    constexpr std::size_t kWhole = ~std::size_t{0};
    std::vector<SubJob> jobs_list;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].replicaSeeds.empty()) {
            jobs_list.push_back({i, kWhole, points[i]});
            continue;
        }
        for (std::size_t r = 0; r < points[i].replicaSeeds.size(); ++r)
            jobs_list.push_back({i, r, replicaSubPoint(points[i], r)});
    }

    std::map<std::string, SystemConfig> baselines;
    std::map<std::string, SystemConfig> groups;
    std::set<std::string> all_groups;
    for (const SubJob &job : jobs_list) {
        all_groups.insert(sweepWarmupKey(job.sub.config));
        if (job.sub.normalize)
            baselines.emplace(baselineKey(job.sub.config), job.sub.config);
        if (forkEligible(job.sub))
            groups.emplace(sweepWarmupKey(job.sub.config), job.sub.config);
    }
    out.warmGroups = all_groups.size();

    {
        Span phase(tracer, "baselines", sweep.id());
        std::vector<SystemConfig> configs;
        for (const auto &[key, config] : baselines)
            configs.push_back(config);
        parallelFor(configs.size(), [&](std::size_t i) {
            Span s(tracer, "baseline", phase.id());
            ScopedFatalThrows fatal_throws;
            try {
                s.work = static_cast<double>(
                    ExperimentRunner::baselineResults(configs[i]).retired);
            } catch (const std::exception &) {
                // The point's own baseline lookup reports the failure.
            }
        });
    }

    std::map<std::string, std::shared_ptr<const System>> snapshots;
    {
        Span phase(tracer, "warmups", sweep.id());
        std::vector<std::pair<std::string, SystemConfig>> todo(
            groups.begin(), groups.end());
        std::vector<std::shared_ptr<const System>> built(todo.size());
        parallelFor(todo.size(), [&](std::size_t i) {
            Span s(tracer, "warm", phase.id());
            ScopedFatalThrows fatal_throws;
            try {
                auto system = std::make_shared<System>(
                    sweepWarmerConfig(todo[i].second));
                system->runToMeasurementStart();
                built[i] = std::move(system);
            } catch (const std::exception &) {
                // Left null: the group's points fail with "warm-up failed".
            }
        });
        for (std::size_t i = 0; i < todo.size(); ++i)
            snapshots[todo[i].first] = built[i];
    }

    std::vector<SweepPointResult> sub_results(jobs_list.size());
    {
        Span phase(tracer, "points", sweep.id());
        parallelFor(jobs_list.size(), [&](std::size_t i) {
            const SubJob &job = jobs_list[i];
            std::shared_ptr<const System> snapshot;
            if (forkEligible(job.sub))
                snapshot = snapshots.at(sweepWarmupKey(job.sub.config));
            sub_results[i] =
                tracedPoint(job.sub, job.point, snapshot, tracer, phase.id());
        });
    }

    out.results.resize(points.size());
    {
        Span phase(tracer, "merges", sweep.id());
        std::vector<std::vector<SweepPointResult>> replicas(points.size());
        for (std::size_t i = 0; i < jobs_list.size(); ++i) {
            if (jobs_list[i].replica == kWhole)
                out.results[jobs_list[i].point] = std::move(sub_results[i]);
            else
                replicas[jobs_list[i].point].push_back(
                    std::move(sub_results[i]));
        }
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (points[i].replicaSeeds.empty())
                continue;
            Span s(tracer, "merge", phase.id());
            out.results[i] = mergeTraced(points[i], i, std::move(replicas[i]));
        }
    }
    {
        Span s(tracer, "report", sweep.id());
        SweepReport report("oscarbench", sweepJobs());
        report.addAll(out.results);
        s.work = static_cast<double>(report.toJson().size());
    }
    out.wallS = secondsSince(start);
    if (tracer == nullptr)
        return out;

    // Per-layer system metrics from this sweep's spans.
    const auto totals = tracer->totalsUnder(sweep.id());
    auto medianMs = [&](const char *name) {
        return median(totals.at(name).durationsNs) / 1e6;
    };
    if (totals.count("baseline"))
        out.metrics["system.baseline_ms"] = medianMs("baseline");
    if (totals.count("warm"))
        out.metrics["system.warm_ms"] = medianMs("warm");
    if (totals.count("clone"))
        out.metrics["system.clone_ms"] = medianMs("clone");
    if (totals.count("merge"))
        out.metrics["system.merge_us"] = 1e3 * medianMs("merge");
    out.metrics["system.report_ms"] = medianMs("report");
    double measure_ns = totals.count("resume") ? totals.at("resume").ns : 0;
    const double resume_ns = measure_ns;
    if (totals.count("reconfigure"))
        measure_ns += totals.at("reconfigure").ns;
    const double retired = static_cast<double>(retiredSum(out.results));
    const double requests = static_cast<double>(requestSum(out.results));
    if (retired > 0)
        out.metrics["system.measure_ns_per_inst"] = measure_ns / retired;
    if (requests > 0)
        out.metrics["system.measure_us_per_req"] = resume_ns / 1e3 / requests;
    return out;
}

/**
 * A one-point sweep taking every step the workloads may skip: a
 * normalized, forkable serving point with two replicas, so baseline,
 * clone, merge and per-request measure metrics exist on every workload.
 */
std::vector<SweepPoint>
systemProbePoints(std::uint64_t seed, bool tiny)
{
    SweepPoint point;
    point.label = "probe/serving/HI";
    point.config = ExperimentRunner::hardwareDynamicConfig(
        WorkloadKind::Apache, 100, seed);
    point.config.userCores = 2;
    point.config.serving =
        makeServing(14'000.0, DispatchPolicy::RoundRobin, tiny);
    point.replicaSeeds = {seed, seed + 1295};
    return {point};
}

/** The traced run's per-layer metrics; spans land in `tracer`. */
std::vector<Metric>
tracedMetrics(const Options &opts, Tracer &tracer, CheckTally &tally)
{
    const std::string artifacts = opts.outDir + "/artifacts";
    std::map<std::string, double> layer;
    Span run(&tracer, "run", Tracer::kRoot);

    Setup setup;
    {
        Span span(&tracer, "setup", run.id());
        setup = buildSetup(opts.workload, opts.seed, opts.tiny, artifacts,
                           &tracer, span.id());
    }
    layer["system.profile_ms"] = median(setup.profileMs);

    // The real runner: the reference the step-by-step sweeps must
    // reproduce.
    const SweepRep plain = timedSweep(setup, artifacts);
    checkSweep(setup, plain.results, tally);
    double busy_ms = 0.0;
    for (const SweepPointResult &point : plain.results)
        busy_ms += point.wallMs;
    layer["system.pool_busy_ratio"] =
        busy_ms / 1e3 /
        (static_cast<double>(std::min<std::size_t>(sweepJobs(),
                                                   setup.points.size())) *
         plain.wallS);

    // The same step-by-step sweep without and with spans, in the order
    // plain, traced, traced, plain, so drift of the host's speed during
    // the four cancels out of the overhead.
    auto chainSweep = [&](Tracer *spans) {
        if (setup.id == WorkloadId::ObservedServing)
            resetDir(artifacts);
        ChainOutcome chain = tracedSweep(setup.points, spans, run.id());
        checkSweep(setup, chain.results, tally);
        tally.check(resultsDigest(chain.results) ==
                        resultsDigest(plain.results),
                    "step-by-step sweep results differ from the runner's");
        return chain;
    };
    const double plain1_s = chainSweep(nullptr).wallS;
    const ChainOutcome chain = chainSweep(&tracer);
    const double traced2_s = chainSweep(&tracer).wallS;
    const double plain2_s = chainSweep(nullptr).wallS;
    if (setup.id == WorkloadId::ObservedServing)
        std::filesystem::remove_all(artifacts);
    for (const auto &[name, value] : chain.metrics)
        layer[name] = value;
    layer["system.warm_groups"] = static_cast<double>(chain.warmGroups);
    const double overhead_s =
        (chain.wallS + traced2_s - plain1_s - plain2_s) / 2.0;
    layer["tracing.overhead_s"] = overhead_s;

    {
        Span span(&tracer, "layers", run.id());
        const std::string scratch = opts.outDir + "/probes";
        resetDir(scratch);
        runLayerProbes(opts.seed, opts.tiny, scratch, tracer, span.id(),
                       layer, tally);
        const ChainOutcome probe = tracedSweep(
            systemProbePoints(opts.seed, opts.tiny), &tracer, span.id());
        checkResults(probe.results, tally);
        for (const auto &[name, value] : probe.metrics)
            layer.emplace(name, value); // the workload's own value wins
        std::filesystem::remove_all(scratch);
    }

    static const std::vector<std::pair<const char *, const char *>> kUnits = {
        {"workload.ref_gen_ns", "ns"},       {"workload.token_ns", "ns"},
        {"workload.request_ns", "ns"},       {"cpu.exec_ns_per_ref", "ns"},
        {"cpu.refs_per_kinst", "1/kinst"},   {"mem.probe_hot_ns", "ns"},
        {"mem.probe_cold_ns", "ns"},         {"mem.l1_hit_ratio", "ratio"},
        {"mem.l2_hit_ratio", "ratio"},       {"core.predict_update_ns", "ns"},
        {"core.decide_ns", "ns"},
        {"core.within_tol_ratio", "ratio"},
        {"os.route_ns", "ns"},               {"os.steals_per_kreq", "1/kreq"},
        {"os.spills_per_kreq", "1/kreq"},    {"sim.event_ns", "ns"},
        {"sim.trace_emit_ns", "ns"},         {"sim.metrics_sample_us", "us"},
        {"sim.span_ns_per_req", "ns"},       {"sim.reader_mb_per_s", "MB/s"},
        {"system.profile_ms", "ms"},         {"system.baseline_ms", "ms"},
        {"system.warm_ms", "ms"},            {"system.clone_ms", "ms"},
        {"system.measure_ns_per_inst", "ns"},
        {"system.measure_us_per_req", "us"}, {"system.merge_us", "us"},
        {"system.report_ms", "ms"},          {"system.warm_groups", "count"},
        {"system.pool_busy_ratio", "ratio"}, {"tracing.overhead_s", "s"},
    };
    std::vector<Metric> metrics;
    for (const auto &[name, unit] : kUnits) {
        const auto it = layer.find(name);
        tally.check(it != layer.end(), std::string("no value for ") + name);
        metrics.push_back({name, it == layer.end() ? 0.0 : it->second, unit});
    }

    std::printf("step-by-step sweeps: %.3f s and %.3f s without spans, "
                "%.3f s and %.3f s with (tracing overhead %+.3f s); "
                "runner sweep %.3f s\n",
                plain1_s, plain2_s, chain.wallS, traced2_s, overhead_s,
                plain.wallS);
    return metrics;
}

int
runTraced(const Options &opts)
{
    Tracer tracer;
    CheckTally tally;
    const std::vector<Metric> metrics = tracedMetrics(opts, tracer, tally);
    const std::string spans_path = opts.outDir + "/trace_spans.jsonl";
    tally.check(tracer.writeJsonl(spans_path, stampJson(opts)),
                "cannot write " + spans_path);
    std::printf("spans: %s\n", spans_path.c_str());
    printMetrics("per-layer metrics (traced run)", metrics);
    printResult(tally, metrics);
    return 0;
}

} // namespace
} // namespace oscarbench

int
main(int argc, char **argv)
{
    using namespace oscarbench;
    const Options opts = parseOptions(argc, argv);
    std::filesystem::create_directories(opts.outDir);
    std::printf("stamp: %s\n", stampJson(opts).c_str());
    std::fflush(stdout);
    return opts.trace ? runTraced(opts) : runUntraced(opts);
}
