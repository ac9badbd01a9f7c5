/**
 * @file
 * Parallel execution of configuration sweeps.
 *
 * Every figure and table of the paper is produced by sweeping dozens
 * of independent (workload, policy, N, latency, seed) points through
 * the simulator. Each point is self-contained and deterministic per
 * seed, so the sweep is embarrassingly parallel: ParallelSweepRunner
 * executes a vector of points on a fixed-size thread pool with
 *
 *  - deterministic result ordering (results land at the index of
 *    their point, regardless of which worker ran them, and a point's
 *    simulation output is byte-identical for any job count);
 *  - per-point wall-clock timing;
 *  - failure isolation: an oscar_fatal or exception in one point is
 *    captured into that point's result and the sweep continues.
 *
 * SweepReport serializes the per-point results to JSON so the bench
 * binaries emit machine-readable artifacts next to their plain-text
 * tables.
 */

#ifndef OSCAR_SYSTEM_SWEEP_HH_
#define OSCAR_SYSTEM_SWEEP_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "system/experiment.hh"
#include "system/system.hh"

namespace oscar
{

/** One configuration point of a sweep. */
struct SweepPoint
{
    /** Human-readable identity, e.g. "apache/N=100/lat=1000". */
    std::string label;
    /** Full system configuration to simulate. */
    SystemConfig config;
    /**
     * True to also obtain the uni-processor baseline and report
     * variant/baseline normalized throughput. The sweep runs the
     * baseline as a sub-job of its own (see ParallelSweepRunner::run):
     * a Baseline replay of the point's fork group when the group is
     * taped, a fresh run of baselineVariant(config) otherwise. Both
     * equal ExperimentRunner::baselineResults(config) bit for bit in
     * throughput; a failed baseline fails the point with its error.
     */
    bool normalize = true;
    /**
     * When non-empty, the point streams an `oscar.trace.v1` JSONL
     * trace of its run to this file. Each point owns its file, so the
     * bytes written are independent of the sweep's job count.
     */
    std::string tracePath;
    /**
     * When non-empty, the point samples a MetricRegistry during its
     * run and writes the `oscar.metrics.v1` document to this file.
     * Like traces, each point owns its file, so the bytes written are
     * independent of the sweep's job count.
     */
    std::string metricsPath;
    /**
     * Sampling period (retired instructions) for the point's metric
     * registry; 0 keeps only the measurement-start and end-of-run
     * samples. Ignored unless metricsPath is set.
     */
    std::uint64_t metricsSampleEvery = 1'000'000;
    /**
     * True to attach a SpanRecorder (see sim/span.hh): the point's
     * results carry per-phase latency histograms and tail exemplars
     * in SimResults::spans, and the report gains a "spans" block.
     * Span points always take the fresh path (no warm-snapshot fork),
     * so phase sums cross-check against requestLatency exactly.
     * Serving configurations only.
     */
    bool recordSpans = false;
    /**
     * When non-empty, the point writes its `oscar.spans.v1` document
     * to this file (implies recordSpans). Each point owns its file,
     * so the bytes written are independent of the sweep's job count.
     */
    std::string spansPath;
    /** Tail-exemplar reservoir capacity for this point's recorder. */
    std::size_t spanExemplars = 8;
    /**
     * Seed replicas of this point. When non-empty, the runner executes
     * one sub-run per listed seed (the point's configuration with
     * `config.seed` replaced) and folds the sub-runs — in listed
     * order, whatever the job count or claim order — into a single
     * merged SweepPointResult via mergeReplicaResults(). Replica
     * sub-runs shard across the worker pool like independent points,
     * so one sharded point saturates the pool instead of running its
     * replicas serially on one worker. `config.seed` itself is never
     * run; leave replicaSeeds empty for the classic one-run point.
     * Trace and metrics paths gain a per-replica ".r<k>" suffix (each
     * replica samples its own registry, so merged metrics are never
     * double-counted).
     */
    std::vector<std::uint64_t> replicaSeeds;
};

/** Outcome of one sweep point. */
struct SweepPointResult
{
    /** Position of the point in the input vector. */
    std::size_t index = 0;
    std::string label;
    /** Configuration snapshot the point ran with. */
    SystemConfig config;

    /** False when the point failed; error holds the reason. */
    bool ok = false;
    std::string error;

    /** Metrics file the point wrote; empty when metrics were off. */
    std::string metricsPath;

    /** Spans file the point wrote; empty when spans were off. */
    std::string spansPath;

    /**
     * Seeds of the replicas folded into this result; empty for a
     * classic one-run point. Mirrors SweepPoint::replicaSeeds.
     */
    std::vector<std::uint64_t> replicaSeeds;

    /** Simulation output (valid only when ok). For a sharded point
     *  this is the mergeReplicaResults() fold of the replicas. */
    SimResults results;
    /** Variant/baseline throughput; 0 when not normalized. */
    double normalized = 0.0;

    /** Host wall-clock the point took, in milliseconds. */
    double wallMs = 0.0;
};

/**
 * Fold the SimResults of a point's seed replicas (in replica order)
 * into one distribution-preserving result.
 *
 * Mergeable machinery pools exactly: offloadRatio via
 * RatioStat::merge, requestLatency and per-queue waits via
 * LatencyHistogram::merge, predictor accuracy via
 * PredictorStats::merge, and per-queue delay / dispatch-wait moments
 * via RunningStat::merge — so a percentile of
 * the merged result is the percentile of the union sample population.
 * Counters sum; per-queue counters sum by queue index (replicas share
 * a topology). Derived rates are recomputed from pooled numerators
 * where the counts exist (throughput = pooled retired / pooled
 * makespan, offloadFraction from the pooled RatioStat, mean
 * invocation length weighted by invocation counts) and otherwise as
 * weighted means over the natural weight (L2 hit rates and priv
 * fraction by retired instructions, utilizations by makespan).
 * Replica-0 wins for fields with no meaningful pooled form: the
 * threshold trajectory and final threshold (per-replica trajectories
 * diverge; switches still sum).
 */
SimResults mergeReplicaResults(const std::vector<SimResults> &replicas);

/**
 * Per-replica artifact file name: ".r<k>" spliced in before a
 * trailing ".jsonl" ("fig.2.jsonl" -> replica 1 -> "fig.2.r1.jsonl"),
 * or appended as ".r<k>.jsonl" otherwise (mirroring sweepTracePath).
 */
std::string sweepReplicaPath(const std::string &base,
                             std::size_t replica);

/** Sweep execution knobs. */
struct SweepOptions
{
    /** Worker threads; 0 means hardware concurrency, 1 runs inline. */
    unsigned jobs = 1;

    /**
     * Fork eligible points from a shared warm snapshot (the default).
     *
     * Points that agree on their warm-up environment — workload, seed,
     * core counts, topology shape, geometry, timings, interrupt rate,
     * coupling scale, serving front-end, warmup length — form a group.
     * The group's prefix is simulated once under a canonical Baseline
     * warmer (no off-loading, so the warm cache/predictor state is
     * policy-neutral), snapshotted at measurement start, and every
     * point clones the snapshot, swaps in its own policy/threshold/
     * predictor configuration, and resumes through the measured region
     * only.
     *
     * This is a deliberate methodology change, not an optimization
     * that preserves bytes: a forked point's warm-up ran under the
     * Baseline policy, so its results may differ (slightly) from a
     * fresh end-to-end run whose warm-up already off-loads. Results
     * are still fully deterministic — independent of job count and of
     * which point warmed the group. Points that stream traces or
     * metrics always take the fresh path so golden artifacts stay
     * byte-identical, and so do span points, whose recorder must see
     * every request of the measured region from a cold start. Points
     * with an empty warm-up have no prefix to share and run fresh
     * too. Set fork=false (or pass --no-fork to a bench) to force the
     * fresh path for every point.
     */
    bool fork = true;
};

/**
 * Fixed-size thread pool executing sweep points concurrently.
 */
class ParallelSweepRunner
{
  public:
    explicit ParallelSweepRunner(SweepOptions options = {});

    /**
     * Run every point and return results in point order.
     *
     * Workers claim points dynamically, in index order except that
     * the single-thread points of one fork group are claimed as a
     * block: the group's longest-horizon point records a stream tape
     * that the others replay (see system/stream_tape.hh). Normalising
     * points add baseline sub-jobs, one per distinct baseline: such a
     * group replays its tape once per normalising horizon under the
     * Baseline policy (with its OS cores idle, that equals the
     * uni-core baseline bit for bit), and every other point gets a
     * fresh uni-core run. Points are normalised once the pool drains.
     * The output vector is indexed by point, and a replay is
     * byte-identical to a live run, so the results are independent of
     * the job count and of worker timing.
     */
    std::vector<SweepPointResult>
    run(const std::vector<SweepPoint> &points) const;

    /**
     * Execute one point with timing and failure capture, on the
     * fresh (non-forked) path: this is the golden-trace-stable
     * entry point. The same as run({point}) with fork off, with the
     * result's index set to `index`.
     */
    static SweepPointResult runPoint(const SweepPoint &point,
                                     std::size_t index);

    /**
     * Drop every cached warm snapshot (tests and A/B timing). Do not
     * call concurrently with a running sweep.
     */
    static void clearWarmSnapshotCache();

    /** Warm snapshots currently cached (tests check lifetimes). */
    static std::size_t cachedWarmSnapshots();

    /** The worker count a run() call will actually use. */
    unsigned effectiveJobs(std::size_t point_count) const;

  private:
    SweepOptions opts;
};

/**
 * The canonical warmer configuration of a point's fork group: the
 * point's configuration with every off-loading decision knob —
 * policy, predictor organization, thresholds, decision costs, SI
 * profile, dynamic-N controller — reset to the Baseline defaults.
 * Every point of a group maps to the same warmer, so the shared
 * warm-up prefix is well defined and policy-neutral.
 */
SystemConfig sweepWarmerConfig(const SystemConfig &config);

/**
 * Machine-readable sweep artifact.
 *
 * Schema ("oscar.sweep.v1"):
 * {
 *   "schema": "oscar.sweep.v1",
 *   "title": "...",
 *   "jobs": 4,
 *   "points": [
 *     {
 *       "index": 0, "label": "...", "ok": true, "error": "",
 *       "metrics_path": "", "wall_ms": 12.5,
 *       "config": {workload, policy, predictor, user_cores,
 *                  dynamic_threshold, static_threshold,
 *                  migration_one_way_cycles, seed,
 *                  warmup_instructions, measure_instructions,
 *                  topology?: {os_cores, numa_nodes, placement,
 *                              dispatch, intra/inter_node_hop_cycles,
 *                              spill_depth}},
 *       "results": {throughput, normalized_throughput, priv_fraction,
 *                   user/os/combined_l2_hit_rate, invocations,
 *                   offloaded, offload_fraction,
 *                   mean_invocation_length, os_core_utilization,
 *                   mean/max_queue_delay, decision/migration/
 *                   queue_wait_cycles, c2c_transfers, invalidations,
 *                   predictor {samples, exact_rate,
 *                              within_tolerance_rate, miss_rate,
 *                              global_fallback_rate},
 *                   numa?: {migrations_intra, migrations_inter,
 *                           steals, spills,
 *                           queues: [{queue, core, node, admitted,
 *                                     steals/spills in/out,
 *                                     utilization, wait_*}, ...]},
 *                   final_threshold, threshold_switches,
 *                   threshold_trajectory: [{instruction, n}, ...]}
 *
 * The topology and numa blocks appear only for points whose topology
 * departs from the paper's one-OS-core default, so every pre-existing
 * artifact remains byte-identical.
 *     }, ...
 *   ]
 * }
 */
class SweepReport
{
  public:
    /**
     * @param title Artifact name, e.g. "fig4_threshold_sweep".
     * @param jobs Worker count the sweep ran with (metadata).
     */
    SweepReport(std::string title, unsigned jobs);

    /** Append one point's outcome. */
    void add(const SweepPointResult &result);

    /** Append every result of a finished sweep. */
    void addAll(const std::vector<SweepPointResult> &results);

    /** Number of points recorded. */
    std::size_t size() const { return points.size(); }

    /** The complete JSON document. */
    std::string toJson() const;

    /**
     * Write the JSON document to a file.
     *
     * @return true on success; warns and returns false on I/O error.
     */
    bool writeTo(const std::string &path) const;

  private:
    std::string reportTitle;
    unsigned reportJobs;
    std::vector<SweepPointResult> points;
};

/**
 * Serialize one point's simulation results (excluding wall-clock, the
 * only nondeterministic field) — the byte-comparison hook used by the
 * determinism tests.
 */
std::string sweepPointResultsJson(const SweepPointResult &result);

/**
 * Command-line options shared by the sweep-driven bench binaries.
 *
 * Recognized flags:
 *   --jobs N          worker threads (default 1; 0 = hardware
 *                     concurrency)
 *   --json PATH       write the sweep report to PATH
 *   --no-json         suppress the report file
 *   --trace PATH      capture per-point traces as PATH-derived files
 *   --metrics PATH    capture per-point oscar.metrics.v1 time series
 *                     as PATH-derived files
 *   --metrics-every N metric sampling period in retired instructions
 *                     (default 1000000; 0 = endpoints only)
 *   --spans PATH      capture per-point oscar.spans.v1 documents as
 *                     PATH-derived files (serving benches)
 *   --help            print usage and exit
 */
struct BenchOptions
{
    unsigned jobs = 1;
    /** Warm-snapshot forking (see SweepOptions::fork); --no-fork off. */
    bool fork = true;
    /** Report destination; empty disables the artifact. */
    std::string jsonPath;
    /** Per-point trace base path; empty disables tracing. */
    std::string tracePath;
    /** Per-point metrics base path; empty disables metrics capture. */
    std::string metricsPath;
    /** Metric sampling period in retired instructions. */
    std::uint64_t metricsEvery = 1'000'000;
    /** Per-point spans base path; empty disables span export. */
    std::string spansPath;

    /**
     * Parse argv; fatal on malformed flags.
     *
     * @param default_json Report path used when --json is absent.
     */
    static BenchOptions parse(int argc, char **argv,
                              const std::string &default_json);
};

/**
 * A command-line flag's decimal value in [0, max]; fatal otherwise.
 * Signs, empty or trailing text and out-of-range values are all
 * rejected, so a typo never becomes 0 or a wrapped huge count.
 *
 * @param flag Flag name, for the error message.
 */
std::uint64_t parseCount(const char *flag, const char *text,
                         std::uint64_t max);

/**
 * Strict non-negative real: true when the whole of `text` is a finite
 * number >= 0, stored in `out`. strtod would read "abc" as 0 and
 * accept "nan", against which every comparison is false.
 */
bool parseNonNegative(const char *text, double &out);

/**
 * Per-point trace file name derived from a base path: the point index
 * is spliced in before a trailing ".jsonl" ("fig4.jsonl" -> point 2 ->
 * "fig4.2.jsonl"), or appended as ".<index>.jsonl" otherwise.
 */
std::string sweepTracePath(const std::string &base, std::size_t index);

/**
 * Set every point's tracePath from a base path (see sweepTracePath);
 * an empty base clears them all.
 */
void applySweepTracePaths(std::vector<SweepPoint> &points,
                          const std::string &base);

/**
 * Set every point's metricsPath from a base path (same derivation as
 * sweepTracePath) and its sampling period; an empty base clears the
 * paths and leaves the periods untouched.
 */
void applySweepMetricsPaths(std::vector<SweepPoint> &points,
                            const std::string &base,
                            std::uint64_t sample_every = 1'000'000);

/**
 * Set every point's spansPath from a base path (same derivation as
 * sweepTracePath); an empty base clears the paths but leaves each
 * point's recordSpans flag untouched.
 */
void applySweepSpanPaths(std::vector<SweepPoint> &points,
                         const std::string &base);

} // namespace oscar

#endif // OSCAR_SYSTEM_SWEEP_HH_
