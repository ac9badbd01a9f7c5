/**
 * @file
 * Implementation of the parallel sweep runner and report.
 */

#include "system/sweep.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/compute_once.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "system/metrics_capture.hh"
#include "system/stream_tape.hh"
#include "system/span_capture.hh"
#include "system/trace_capture.hh"

namespace oscar
{

namespace
{

void
writeResultsJson(JsonWriter &w, const SweepPointResult &point)
{
    const SimResults &r = point.results;
    w.beginObject();
    w.field("throughput", r.throughput);
    w.field("normalized_throughput", point.normalized);
    w.field("makespan", r.makespan);
    w.field("retired", r.retired);
    w.field("priv_fraction", r.privFraction);
    w.field("user_l2_hit_rate", r.userL2HitRate);
    w.field("os_l2_hit_rate", r.osL2HitRate);
    w.field("combined_l2_hit_rate", r.combinedL2HitRate);
    w.field("invocations", r.invocations);
    w.field("offloaded", r.offloaded);
    w.field("offload_fraction", r.offloadFraction);
    w.field("mean_invocation_length", r.meanInvocationLength);
    w.field("os_core_utilization", r.osCoreUtilization);
    w.field("mean_queue_delay", r.meanQueueDelay);
    w.field("max_queue_delay", r.maxQueueDelay);
    w.field("decision_cycles", r.decisionCycles);
    w.field("migration_cycles", r.migrationCycles);
    w.field("queue_wait_cycles", r.queueWaitCycles);
    w.field("c2c_transfers", r.c2cTransfers);
    w.field("invalidations", r.invalidations);

    w.key("predictor");
    w.beginObject();
    w.field("samples", r.accuracy.samples());
    w.field("exact_rate", r.accuracy.exactRate());
    w.field("within_tolerance_rate", r.accuracy.withinToleranceRate());
    w.field("miss_rate", r.accuracy.missRate());
    w.field("global_fallback_rate", r.accuracy.globalFallbackRate());
    w.endObject();

    w.key("serving");
    w.beginObject();
    w.field("enabled", r.servingEnabled);
    w.field("requests_completed", r.requestsCompleted);
    w.field("requests_offered", r.requestsOffered);
    w.field("request_throughput_kcy", r.requestThroughput);
    w.field("latency_count", r.requestLatency.count());
    w.field("latency_min", r.requestLatency.min());
    w.field("latency_mean", r.requestLatency.mean());
    w.field("latency_p50", r.requestLatency.quantile(0.50));
    w.field("latency_p95", r.requestLatency.quantile(0.95));
    w.field("latency_p99", r.requestLatency.quantile(0.99));
    w.field("latency_p999", r.requestLatency.quantile(0.999));
    w.field("latency_max", r.requestLatency.max());
    w.field("dispatch_wait_mean", r.requestDispatchWait.mean());
    w.field("dispatch_wait_max", r.requestDispatchWait.max());
    w.endObject();

    // Same gate as writeConfigTopology: default-topology points keep
    // the legacy byte layout; multi-queue points add a numa block.
    if (point.config.offloadEnabled &&
        !point.config.topology.isDefault()) {
        w.key("numa");
        w.beginObject();
        w.field("migrations_intra", r.numaMigrationsIntra);
        w.field("migrations_inter", r.numaMigrationsInter);
        w.field("steals", r.steals);
        w.field("spills", r.spills);
        w.key("queues");
        w.beginArray();
        for (const OsQueueResult &q : r.osQueues) {
            w.beginObject();
            w.field("queue", q.queue);
            w.field("core", static_cast<std::uint64_t>(q.core));
            w.field("node", q.node);
            w.field("admitted", q.admitted);
            w.field("steals_in", q.stealsIn);
            w.field("steals_out", q.stealsOut);
            w.field("spills_in", q.spillsIn);
            w.field("spills_out", q.spillsOut);
            w.field("utilization", q.utilization);
            w.field("wait_mean", q.wait.mean());
            w.field("wait_p50", q.wait.quantile(0.50));
            w.field("wait_p95", q.wait.quantile(0.95));
            w.field("wait_p99", q.wait.quantile(0.99));
            w.field("wait_p999", q.wait.quantile(0.999));
            w.field("wait_max", q.wait.max());
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    // Span-recording points add per-phase attribution; everything
    // else keeps the pre-existing byte layout (spans off = no block).
    if (r.spans != nullptr) {
        const SpanResults &s = *r.spans;
        w.key("spans");
        w.beginObject();
        w.field("count", s.spansRecorded);
        w.field("exemplars",
                static_cast<std::uint64_t>(s.exemplars.size()));
        w.key("phases");
        w.beginArray();
        for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
            const LatencyHistogram &h = s.phase[p];
            w.beginObject();
            w.field("name", spanPhaseName(static_cast<SpanPhase>(p)));
            w.field("count", h.count());
            w.field("sum", h.sum());
            w.field("mean", h.mean());
            w.field("p50", h.quantile(0.50));
            w.field("p95", h.quantile(0.95));
            w.field("p99", h.quantile(0.99));
            w.field("p999", h.quantile(0.999));
            w.field("max", h.max());
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.field("final_threshold", r.finalThreshold);
    w.field("threshold_switches", r.thresholdSwitches);
    w.key("threshold_trajectory");
    w.beginArray();
    for (const ThresholdSample &sample : r.thresholdTrajectory) {
        w.beginObject();
        w.field("instruction", sample.instruction);
        w.field("n", sample.threshold);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writePointJson(JsonWriter &w, const SweepPointResult &point,
               bool include_wall)
{
    w.beginObject();
    w.field("index", static_cast<std::uint64_t>(point.index));
    w.field("label", point.label);
    w.field("ok", point.ok);
    w.field("error", point.error);
    w.field("metrics_path", point.metricsPath);
    // Span-exporting points record their file; everything else keeps
    // the pre-existing byte layout.
    if (!point.spansPath.empty())
        w.field("spans_path", point.spansPath);
    // Sharded points record their replica seeds; classic points emit
    // nothing here, so pre-existing artifacts stay byte-identical.
    if (!point.replicaSeeds.empty()) {
        w.field("replicas", static_cast<std::uint64_t>(
                                point.replicaSeeds.size()));
        w.key("replica_seeds");
        w.beginArray();
        for (const std::uint64_t seed : point.replicaSeeds)
            w.value(seed);
        w.endArray();
    }
    if (include_wall)
        w.field("wall_ms", point.wallMs);
    w.key("config");
    w.beginObject();
    writeConfigIdentity(w, point.config);
    writeConfigHorizons(w, point.config);
    writeConfigTopology(w, point.config);
    w.endObject();
    if (point.ok) {
        w.key("results");
        writeResultsJson(w, point);
    }
    w.endObject();
}

// ---------------------------------------------------------------------
// Warm-snapshot cache

/**
 * One warm System per fork group, simulated once however many points
 * of the group ask for it concurrently. The snapshot is const and only
 * ever clone()d, which is thread-safe.
 */
ComputeOnce<std::shared_ptr<const System>> snapshotCache;

std::shared_ptr<const System>
warmSnapshot(const SystemConfig &point_config)
{
    return snapshotCache.get(sweepWarmupKey(point_config), [&] {
        auto system =
            std::make_shared<System>(sweepWarmerConfig(point_config));
        system->runToMeasurementStart();
        return std::shared_ptr<const System>(std::move(system));
    });
}

/**
 * A point may fork only when nothing observes its warm-up: trace or
 * metrics streams must cover the whole run (golden artifacts stay
 * byte-identical), and an empty warm-up has no prefix to share.
 */
bool
forkEligible(const SweepPoint &point)
{
    if (!point.tracePath.empty() || !point.metricsPath.empty())
        return false;
    // Span points run fresh too: the recorder must see every request
    // of the measured region from a cold start so phase sums
    // cross-check against requestLatency exactly.
    if (point.recordSpans || !point.spansPath.empty())
        return false;
    if (point.config.serving != nullptr)
        return point.config.serving->warmupRequests > 0;
    return point.config.warmupInstructions > 0;
}

/**
 * True when the points of a fork group share one measured-region
 * stream: one user thread and no serving front-end (stream_tape.hh).
 * Such a group tapes that stream and normalises against a Baseline
 * replay of it.
 */
bool
tapeable(const SystemConfig &config)
{
    return config.userCores == 1 && config.serving == nullptr;
}

} // namespace

SystemConfig
sweepWarmerConfig(const SystemConfig &config)
{
    SystemConfig warmer = config;
    const SystemConfig defaults;
    warmer.policy = PolicyKind::Baseline;
    warmer.predictor = defaults.predictor;
    warmer.dynamicThreshold = false;
    warmer.thresholdFeedback = defaults.thresholdFeedback;
    warmer.staticThreshold = defaults.staticThreshold;
    warmer.thresholdConfig = defaults.thresholdConfig;
    warmer.siDecisionCost = defaults.siDecisionCost;
    warmer.diDecisionCost = defaults.diDecisionCost;
    warmer.hiDecisionCost = defaults.hiDecisionCost;
    warmer.siProfile.reset();
    return warmer;
}

// ---------------------------------------------------------------------
// Replica merging

SimResults
mergeReplicaResults(const std::vector<SimResults> &replicas)
{
    oscar_assert(!replicas.empty());
    // Replica 0 seeds every field with no pooled form (workload and
    // policy names, the threshold trajectory, final threshold).
    SimResults merged = replicas.front();
    // SimResults shares its span aggregates behind a shared_ptr;
    // deep-copy before folding so replica 0's own results stay
    // untouched.
    if (merged.spans != nullptr)
        merged.spans = std::make_shared<SpanResults>(*merged.spans);
    if (replicas.size() == 1)
        return merged;

    // Weighted-rate numerators over every replica (including 0):
    // retirement-weighted for instruction-share rates, makespan-
    // weighted for utilizations.
    double retired_sum = 0.0;
    double makespan_sum = 0.0;
    double priv_num = 0.0;
    double warm_priv_num = 0.0;
    double user_l2_num = 0.0;
    double os_l2_num = 0.0;
    double combined_l2_num = 0.0;
    double util_num = 0.0;
    double share_num[4] = {0.0, 0.0, 0.0, 0.0};
    double inv_len_num = 0.0;
    double inv_count_sum = 0.0;
    for (const SimResults &r : replicas) {
        const double ret = static_cast<double>(r.retired);
        const double mk = static_cast<double>(r.makespan);
        retired_sum += ret;
        makespan_sum += mk;
        priv_num += r.privFraction * ret;
        warm_priv_num += r.warmupPrivFraction * ret;
        user_l2_num += r.userL2HitRate * ret;
        os_l2_num += r.osL2HitRate * ret;
        combined_l2_num += r.combinedL2HitRate * ret;
        util_num += r.osCoreUtilization * mk;
        for (std::size_t t = 0; t < 4; ++t)
            share_num[t] += r.osShareAbove[t] * ret;
        inv_len_num += r.meanInvocationLength *
                       static_cast<double>(r.invocations);
        inv_count_sum += static_cast<double>(r.invocations);
    }

    for (std::size_t i = 1; i < replicas.size(); ++i) {
        const SimResults &r = replicas[i];
        oscar_assert(r.servingEnabled == merged.servingEnabled);
        merged.makespan += r.makespan;
        merged.retired += r.retired;
        merged.invocations += r.invocations;
        merged.offloaded += r.offloaded;
        merged.numaMigrationsIntra += r.numaMigrationsIntra;
        merged.numaMigrationsInter += r.numaMigrationsInter;
        merged.steals += r.steals;
        merged.spills += r.spills;
        merged.decisionCycles += r.decisionCycles;
        merged.migrationCycles += r.migrationCycles;
        merged.queueWaitCycles += r.queueWaitCycles;
        merged.c2cTransfers += r.c2cTransfers;
        merged.invalidations += r.invalidations;
        merged.thresholdSwitches += r.thresholdSwitches;
        merged.requestsCompleted += r.requestsCompleted;
        merged.requestsOffered += r.requestsOffered;
        for (std::size_t s = 0; s < kNumServices; ++s) {
            merged.invocationsByService[s] += r.invocationsByService[s];
            merged.offloadsByService[s] += r.offloadsByService[s];
        }
        merged.offloadRatio.merge(r.offloadRatio);
        merged.requestLatency.merge(r.requestLatency);
        merged.requestDispatchWait.merge(r.requestDispatchWait);
        if (merged.spans != nullptr && r.spans != nullptr)
            merged.spans->merge(*r.spans);
        merged.accuracy.merge(r.accuracy);
        // Queue k of one replica merges with queue k of every other:
        // replicas share the configuration, hence the topology.
        oscar_assert(r.osQueues.size() == merged.osQueues.size());
        for (std::size_t k = 0; k < merged.osQueues.size(); ++k) {
            OsQueueResult &into = merged.osQueues[k];
            const OsQueueResult &from = r.osQueues[k];
            oscar_assert(into.queue == from.queue &&
                         into.core == from.core &&
                         into.node == from.node);
            into.admitted += from.admitted;
            into.stealsIn += from.stealsIn;
            into.stealsOut += from.stealsOut;
            into.spillsIn += from.spillsIn;
            into.spillsOut += from.spillsOut;
            into.queueDelay.merge(from.queueDelay);
            into.wait.merge(from.wait);
        }
    }

    // Per-queue utilization: busy cycles pool over pooled makespan.
    {
        std::size_t k = 0;
        for (OsQueueResult &into : merged.osQueues) {
            double busy = 0.0;
            for (const SimResults &r : replicas) {
                busy += r.osQueues[k].utilization *
                        static_cast<double>(r.makespan);
            }
            into.utilization =
                makespan_sum > 0.0 ? busy / makespan_sum : 0.0;
            ++k;
        }
    }

    merged.throughput =
        makespan_sum > 0.0 ? retired_sum / makespan_sum : 0.0;
    merged.privFraction =
        retired_sum > 0.0 ? priv_num / retired_sum : 0.0;
    merged.warmupPrivFraction =
        retired_sum > 0.0 ? warm_priv_num / retired_sum : 0.0;
    merged.userL2HitRate =
        retired_sum > 0.0 ? user_l2_num / retired_sum : 0.0;
    merged.osL2HitRate =
        retired_sum > 0.0 ? os_l2_num / retired_sum : 0.0;
    merged.combinedL2HitRate =
        retired_sum > 0.0 ? combined_l2_num / retired_sum : 0.0;
    merged.osCoreUtilization =
        makespan_sum > 0.0 ? util_num / makespan_sum : 0.0;
    for (std::size_t t = 0; t < 4; ++t) {
        merged.osShareAbove[t] =
            retired_sum > 0.0 ? share_num[t] / retired_sum : 0.0;
    }
    merged.offloadFraction = merged.offloadRatio.ratio();
    merged.meanInvocationLength =
        inv_count_sum > 0.0 ? inv_len_num / inv_count_sum : 0.0;
    if (merged.servingEnabled) {
        merged.requestThroughput =
            merged.makespan
                ? static_cast<double>(merged.requestsCompleted) *
                      1000.0 / static_cast<double>(merged.makespan)
                : 0.0;
    }

    // Queue delay over the pooled per-queue samples, mirroring the
    // single-run computation over its own queues.
    {
        RunningStat pooled;
        for (const OsQueueResult &q : merged.osQueues)
            pooled.merge(q.queueDelay);
        if (pooled.count() > 0) {
            merged.meanQueueDelay = pooled.mean();
            merged.maxQueueDelay = pooled.max();
        }
    }
    return merged;
}

// ---------------------------------------------------------------------
// ParallelSweepRunner

ParallelSweepRunner::ParallelSweepRunner(SweepOptions options)
    : opts(options)
{
}

unsigned
ParallelSweepRunner::effectiveJobs(std::size_t point_count) const
{
    unsigned jobs = opts.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    if (point_count < jobs)
        jobs = static_cast<unsigned>(point_count);
    return jobs == 0 ? 1 : jobs;
}

namespace
{

/** What a forked point does with its group's stream tape. */
enum class TapeUse
{
    None,
    Record,
    Replay,
};

/**
 * Execute one sub-job with timing and failure capture. A forked
 * sub-job clones its group's warm snapshot and then records its
 * measured region into `tape`, or replays it from there, as `tape_use`
 * says (see stream_tape.hh); any other sub-job runs fresh, with its
 * trace, metrics and spans attached.
 */
SweepPointResult
executePoint(const SweepPoint &point, std::size_t index, bool fork,
             TapeUse tape_use, const std::shared_ptr<StreamTape> &tape)
{
    SweepPointResult result;
    result.index = index;
    result.label = point.label;
    result.config = point.config;

    const auto start = std::chrono::steady_clock::now();
    try {
        // Within this point, a bad configuration (oscar_fatal) throws
        // instead of exiting, so one poisoned point cannot take down
        // the rest of the sweep.
        ScopedFatalThrows fatal_throws;
        if (fork) {
            // Fork path: clone the group's shared warm snapshot, swap
            // in this point's measurement configuration, and resume
            // through the measured region only.
            const std::shared_ptr<const System> snapshot =
                warmSnapshot(point.config);
            const std::unique_ptr<System> forked = snapshot->clone();
            forked->reconfigureForMeasurement(point.config);
            if (tape_use == TapeUse::Record)
                forked->recordStreamTape(tape);
            else if (tape_use == TapeUse::Replay)
                forked->replayStreamTape(tape);
            result.results = forked->resumeRun();
        } else {
            std::unique_ptr<JsonlTraceSink> trace;
            if (!point.tracePath.empty()) {
                trace = std::make_unique<JsonlTraceSink>(
                    point.tracePath, traceHeaderJson(point.config));
            }
            std::unique_ptr<MetricRegistry> metrics;
            if (!point.metricsPath.empty()) {
                metrics = std::make_unique<MetricRegistry>(
                    point.metricsSampleEvery);
            }
            std::unique_ptr<SpanRecorder> spans;
            if (point.recordSpans || !point.spansPath.empty())
                spans = std::make_unique<SpanRecorder>(point.spanExemplars);
            result.results = ExperimentRunner::run(
                point.config, trace.get(), metrics.get(), spans.get());
            if (metrics &&
                writeMetricsFile(*metrics, point.config,
                                 point.metricsPath)) {
                result.metricsPath = point.metricsPath;
            }
            if (spans && !point.spansPath.empty() &&
                writeSpansFile(spans->results(), point.config,
                               point.spansPath)) {
                result.spansPath = point.spansPath;
            }
        }
        result.ok = true;
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    }
    const auto end = std::chrono::steady_clock::now();
    result.wallMs =
        std::chrono::duration<double, std::milli>(end - start).count();
    return result;
}

} // namespace

SweepPointResult
ParallelSweepRunner::runPoint(const SweepPoint &point, std::size_t index)
{
    SweepPointResult result = std::move(
        ParallelSweepRunner({1, /*fork=*/false}).run({point}).front());
    result.index = index;
    return result;
}

void
ParallelSweepRunner::clearWarmSnapshotCache()
{
    snapshotCache.clear();
}

std::size_t
ParallelSweepRunner::cachedWarmSnapshots()
{
    return snapshotCache.size();
}

namespace
{

/** The one-seed sub-point a replica of a sharded point runs as. */
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

/**
 * Fold a sharded point's per-replica outcomes (already in replica
 * order) into its single merged result. Wall clock sums; normalized
 * throughput averages over the normalized replicas; a
 * failed replica fails the point with the first failure's message.
 */
SweepPointResult
mergeReplicaPoint(const SweepPoint &point, std::size_t index,
                  std::vector<SweepPointResult> &&replicas)
{
    SweepPointResult merged;
    merged.index = index;
    merged.label = point.label;
    merged.config = point.config;
    merged.replicaSeeds = point.replicaSeeds;
    merged.ok = true;

    std::vector<SimResults> sims;
    sims.reserve(replicas.size());
    double normalized_sum = 0.0;
    unsigned normalized_count = 0;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        SweepPointResult &rep = replicas[r];
        merged.wallMs += rep.wallMs;
        if (!rep.ok) {
            if (merged.ok) {
                merged.ok = false;
                merged.error =
                    "replica seed " +
                    std::to_string(point.replicaSeeds[r]) + ": " +
                    rep.error;
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

} // namespace

namespace
{

/**
 * What each sub-job of one run() call does, and in which order the
 * workers claim them: the only place that decides whether a sub-job
 * forks, whether it records or replays a stream tape, and which
 * baseline sub-job normalises it.
 *
 * Fork-eligible sub-jobs that share a warm-up key form a group and
 * fork from its warm snapshot; every other sub-job runs fresh. Every
 * normalising point gets a baseline sub-job, appended after the
 * points. In a tapeable group it is one Baseline sub-job per distinct
 * horizon among the group's normalising points: the group's warm
 * snapshot reconfigured to sweepWarmerConfig() at that horizon. Its OS
 * cores stay idle, so its throughput equals the uni-core baseline's
 * bit for bit. Any other point gets a fresh ExperimentRunner::run of
 * baselineVariant(), one per baselineCacheKey(), which is exactly
 * what ExperimentRunner::baselineResults computes. normalize() divides
 * each point by its baseline once the pool has drained.
 *
 * A tapeable group of two or more sub-jobs, baselines included, is
 * taped: its point with the longest horizon runs first and records the
 * measured-region stream, and the others replay it. Taped groups are
 * claimed as a block at the position of their first sub-job; every
 * other sub-job keeps its index position, so fresh baselines come
 * last. A worker never waits for a tape: while a group's tape is being
 * recorded it claims later work, and when nothing else is left it runs
 * the group's next sub-job live. If the recorder fails, the group's
 * other sub-jobs run live too. When a group's last sub-job finishes,
 * its tape and warm snapshot are dropped. Which worker runs what never
 * changes a result: replay is byte-identical to live, and results land
 * by index.
 */
class SweepSchedule
{
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** One claimed sub-job. */
    struct Claim
    {
        std::size_t job = kNone;
        bool fork = false;
        TapeUse use = TapeUse::None;
        std::shared_ptr<StreamTape> tape;
    };

    /** Schedule `points`, which become sub-jobs 0 .. points.size()-1;
     *  their baselines are appended after them. */
    SweepSchedule(std::vector<SweepPoint> points, bool fork)
        : subs(std::move(points)), groupOf(subs.size(), kNone),
          baselineOf(subs.size(), kNone)
    {
        std::map<std::string, std::size_t> index;
        for (std::size_t j = 0; j < subs.size(); ++j) {
            if (!fork || !forkEligible(subs[j]))
                continue;
            const std::string key = sweepWarmupKey(subs[j].config);
            auto [it, fresh] = index.emplace(key, groups.size());
            if (fresh) {
                groups.emplace_back();
                groups.back().key = key;
                groups.back().tapeable = tapeable(subs[j].config);
            }
            groupOf[j] = it->second;
            groups[it->second].members.push_back(j);
        }

        for (Group &group : groups) {
            if (!group.tapeable)
                continue;
            // The recorder covers every member's horizon.
            const auto longest = std::max_element(
                group.members.begin(), group.members.end(),
                [&](std::size_t a, std::size_t b) {
                    return subs[a].config.measureInstructions <
                           subs[b].config.measureInstructions;
                });
            std::rotate(group.members.begin(), longest, longest + 1);
        }
        addBaselines();
        for (Group &group : groups) {
            group.taped = group.tapeable && group.members.size() > 1;
            group.unfinished = group.members.size();
        }
        claimed.assign(subs.size(), false);

        std::vector<bool> placed(groups.size(), false);
        for (std::size_t j = 0; j < subs.size(); ++j) {
            const std::size_t g = groupOf[j];
            if (g == kNone || !groups[g].taped) {
                order.push_back(j);
            } else if (!placed[g]) {
                placed[g] = true;
                order.insert(order.end(), groups[g].members.begin(),
                             groups[g].members.end());
            }
        }
    }

    /** Sub-jobs to run, baselines included. */
    std::size_t size() const { return subs.size(); }

    /** The point sub-job `j` runs. */
    const SweepPoint &job(std::size_t j) const { return subs[j]; }

    /** The next sub-job to run; job == kNone when none is left. */
    Claim
    claim()
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::size_t waiting = kNone;
        for (const std::size_t j : order) {
            if (claimed[j])
                continue;
            const std::size_t g = groupOf[j];
            if (g == kNone || !groups[g].taped)
                return take(j, TapeUse::None, nullptr);
            Group &group = groups[g];
            switch (group.state) {
              case TapeState::Unrecorded:
                oscar_assert(j == group.members.front());
                group.state = TapeState::Recording;
                group.tape = std::make_shared<StreamTape>(subs[j].config);
                return take(j, TapeUse::Record, group.tape);
              case TapeState::Ready:
                return take(j, TapeUse::Replay, group.tape);
              case TapeState::Failed:
                return take(j, TapeUse::None, nullptr);
              case TapeState::Recording:
                if (waiting == kNone)
                    waiting = j;
                continue;
            }
        }
        // Only sub-jobs awaiting a tape remain: run one live rather
        // than leave this worker idle.
        if (waiting != kNone)
            return take(waiting, TapeUse::None, nullptr);
        return Claim{};
    }

    /** Report a claimed sub-job finished. */
    void
    complete(const Claim &claim)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const std::size_t g = groupOf[claim.job];
        if (g == kNone)
            return;
        Group &group = groups[g];
        if (claim.use == TapeUse::Record) {
            // A recorder that failed leaves an unsealed tape behind,
            // and the group's other sub-jobs run live.
            group.state = claim.tape->finished() ? TapeState::Ready
                                                 : TapeState::Failed;
            if (group.state == TapeState::Failed)
                group.tape.reset();
        }
        if (--group.unfinished == 0) {
            group.tape.reset();
            snapshotCache.erase(group.key);
        }
    }

    /**
     * Once every sub-job has run, divide each normalising point by its
     * baseline sub-job; a failed baseline fails its points with the
     * baseline's error.
     */
    void
    normalize(std::vector<SweepPointResult> &outcomes) const
    {
        for (std::size_t j = 0; j < outcomes.size(); ++j) {
            SweepPointResult &out = outcomes[j];
            const std::size_t b = baselineOf[j];
            if (b == kNone || !out.ok)
                continue;
            const SweepPointResult &base = outcomes[b];
            if (!base.ok) {
                out.ok = false;
                out.error = base.error;
                continue;
            }
            oscar_assert(base.results.throughput > 0.0);
            out.normalized =
                out.results.throughput / base.results.throughput;
        }
    }

  private:
    enum class TapeState
    {
        Unrecorded,
        Recording,
        Ready,
        Failed,
    };

    struct Group
    {
        std::string key;
        /** Sub-jobs of the group: a tapeable group's recorder first,
         *  its baselines last. */
        std::vector<std::size_t> members;
        std::size_t unfinished = 0;
        bool tapeable = false;
        bool taped = false;
        TapeState state = TapeState::Unrecorded;
        std::shared_ptr<StreamTape> tape;
    };

    /**
     * Give every normalising point sub-job a baseline sub-job: its
     * tapeable group's Baseline replay at its horizon, or else a fresh
     * baselineVariant() run. Points whose baselines would be
     * identical share one.
     */
    void
    addBaselines()
    {
        // (tapeable group or kNone, baselineCacheKey) -> sub-job.
        std::map<std::pair<std::size_t, std::string>, std::size_t> made;
        const std::size_t points = subs.size();
        for (std::size_t j = 0; j < points; ++j) {
            if (!subs[j].normalize)
                continue;
            const SystemConfig &config = subs[j].config;
            const std::size_t g =
                groupOf[j] != kNone && groups[groupOf[j]].tapeable
                    ? groupOf[j]
                    : kNone;
            const auto [it, added] = made.emplace(
                std::make_pair(g, baselineCacheKey(baselineVariant(config))),
                subs.size());
            baselineOf[j] = it->second;
            if (!added)
                continue;
            SweepPoint baseline;
            baseline.normalize = false;
            baseline.config = g != kNone ? sweepWarmerConfig(config)
                                         : baselineVariant(config);
            if (g != kNone)
                groups[g].members.push_back(subs.size());
            groupOf.push_back(g);
            baselineOf.push_back(kNone);
            subs.push_back(std::move(baseline));
        }
    }

    Claim
    take(std::size_t job, TapeUse use, std::shared_ptr<StreamTape> tape)
    {
        claimed[job] = true;
        return Claim{job, groupOf[job] != kNone, use, std::move(tape)};
    }

    /** Point sub-jobs, then baselines. */
    std::vector<SweepPoint> subs;
    std::mutex mutex;
    std::vector<Group> groups;
    /** Group of each sub-job; kNone when it runs fresh. */
    std::vector<std::size_t> groupOf;
    /** Baseline sub-job normalising each sub-job, or kNone. */
    std::vector<std::size_t> baselineOf;
    /** Claim order over sub-jobs. */
    std::vector<std::size_t> order;
    std::vector<bool> claimed;
};

} // namespace

std::vector<SweepPointResult>
ParallelSweepRunner::run(const std::vector<SweepPoint> &points) const
{
    if (points.empty())
        return {};

    // Expand sharded points into per-replica sub-jobs. Replicas join
    // the same claim pool as whole points, so a single many-replica
    // point saturates the pool instead of running its replicas
    // serially on one worker.
    std::vector<SweepPoint> subs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::vector<std::uint64_t> &seeds =
            points[i].replicaSeeds;
        if (seeds.empty())
            subs.push_back(points[i]);
        for (std::size_t r = 0; r < seeds.size(); ++r)
            subs.push_back(replicaSubPoint(points[i], r));
    }

    SweepSchedule schedule(std::move(subs), opts.fork);
    std::vector<SweepPointResult> outcomes(schedule.size());
    auto worker = [&]() {
        for (;;) {
            const SweepSchedule::Claim claim = schedule.claim();
            if (claim.job == SweepSchedule::kNone)
                return;
            outcomes[claim.job] =
                executePoint(schedule.job(claim.job), claim.job,
                             claim.fork, claim.use, claim.tape);
            schedule.complete(claim);
        }
    };

    const unsigned jobs = effectiveJobs(schedule.size());
    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            threads.emplace_back(worker);
        for (std::thread &thread : threads)
            thread.join();
    }
    schedule.normalize(outcomes);

    // Sub-results land by sub-job index regardless of which worker ran
    // them, and a point's replicas are consecutive sub-jobs, folded in
    // listed order: the output is independent of the job count and
    // claim order.
    std::vector<SweepPointResult> results;
    results.reserve(points.size());
    auto sub = std::make_move_iterator(outcomes.begin());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t replicas = points[i].replicaSeeds.size();
        if (replicas == 0) {
            results.push_back(*sub++);
            results.back().index = i;
            continue;
        }
        results.push_back(mergeReplicaPoint(
            points[i], i, std::vector<SweepPointResult>(sub, sub + replicas)));
        sub += replicas;
    }
    return results;
}

// ---------------------------------------------------------------------
// SweepReport

SweepReport::SweepReport(std::string title, unsigned jobs)
    : reportTitle(std::move(title)), reportJobs(jobs)
{
}

void
SweepReport::add(const SweepPointResult &result)
{
    points.push_back(result);
}

void
SweepReport::addAll(const std::vector<SweepPointResult> &results)
{
    for (const SweepPointResult &result : results)
        add(result);
}

std::string
SweepReport::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "oscar.sweep.v1");
    w.field("title", reportTitle);
    w.field("jobs", reportJobs);
    w.key("points");
    w.beginArray();
    for (const SweepPointResult &point : points)
        writePointJson(w, point, /*include_wall=*/true);
    w.endArray();
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

bool
SweepReport::writeTo(const std::string &path) const
{
    return writeArtifactFile(path, toJson() + '\n', "sweep report");
}

std::string
sweepPointResultsJson(const SweepPointResult &result)
{
    JsonWriter w;
    writePointJson(w, result, /*include_wall=*/false);
    oscar_assert(w.complete());
    return w.str();
}

namespace
{

/** `base` with `tag` inserted before its ".jsonl" (appended if none). */
std::string
jsonlPathWithTag(const std::string &base, const std::string &tag)
{
    static const std::string kExt = ".jsonl";
    if (base.size() > kExt.size() &&
        base.compare(base.size() - kExt.size(), kExt.size(), kExt) ==
            0) {
        return base.substr(0, base.size() - kExt.size()) + tag + kExt;
    }
    return base + tag + kExt;
}

} // namespace

std::string
sweepReplicaPath(const std::string &base, std::size_t replica)
{
    return jsonlPathWithTag(base, ".r" + std::to_string(replica));
}

std::string
sweepTracePath(const std::string &base, std::size_t index)
{
    return jsonlPathWithTag(base, "." + std::to_string(index));
}

void
applySweepTracePaths(std::vector<SweepPoint> &points,
                     const std::string &base)
{
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i].tracePath = base.empty() ? std::string()
                                           : sweepTracePath(base, i);
}

void
applySweepMetricsPaths(std::vector<SweepPoint> &points,
                       const std::string &base,
                       std::uint64_t sample_every)
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (base.empty()) {
            points[i].metricsPath.clear();
            continue;
        }
        points[i].metricsPath = sweepTracePath(base, i);
        points[i].metricsSampleEvery = sample_every;
    }
}

void
applySweepSpanPaths(std::vector<SweepPoint> &points,
                    const std::string &base)
{
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i].spansPath = base.empty() ? std::string()
                                           : sweepTracePath(base, i);
}

// ---------------------------------------------------------------------
// BenchOptions

std::uint64_t
parseCount(const char *flag, const char *text, std::uint64_t max)
{
    // strtoull alone would negate a leading '-' into a huge value and
    // saturate on overflow, so both are rejected explicitly.
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || value > max) {
        oscar_fatal("%s expects a non-negative integer no larger than "
                    "%llu, got '%s'",
                    flag, static_cast<unsigned long long>(max), text);
    }
    return value;
}

bool
parseNonNegative(const char *text, double &out)
{
    const char *end = text + std::strlen(text);
    const auto res = std::from_chars(text, end, out);
    return res.ec == std::errc() && res.ptr == end && std::isfinite(out) &&
           out >= 0.0;
}

BenchOptions
BenchOptions::parse(int argc, char **argv,
                    const std::string &default_json)
{
    BenchOptions opts;
    opts.jsonPath = default_json;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "--json" || arg == "--trace" ||
            arg == "--metrics" || arg == "--metrics-every" ||
            arg == "--spans") {
            if (i + 1 >= argc)
                oscar_fatal("bench option '%s' requires a value "
                            "(try --help)", arg.c_str());
        }
        if (arg == "--jobs") {
            opts.jobs = static_cast<unsigned>(parseCount(
                "--jobs", argv[++i],
                std::numeric_limits<unsigned>::max()));
        } else if (arg == "--json") {
            opts.jsonPath = argv[++i];
        } else if (arg == "--no-json") {
            opts.jsonPath.clear();
        } else if (arg == "--no-fork") {
            opts.fork = false;
        } else if (arg == "--trace") {
            opts.tracePath = argv[++i];
        } else if (arg == "--metrics") {
            opts.metricsPath = argv[++i];
        } else if (arg == "--spans") {
            opts.spansPath = argv[++i];
        } else if (arg == "--metrics-every") {
            opts.metricsEvery = parseCount(
                "--metrics-every", argv[++i],
                std::numeric_limits<std::uint64_t>::max());
        } else if (arg == "--help") {
            std::printf("usage: %s [--jobs N] [--json PATH | --no-json]"
                        " [--no-fork] [--trace PATH] [--metrics PATH]"
                        " [--metrics-every N] [--spans PATH]\n"
                        "  --jobs N          worker threads (0 = all "
                        "cores; default 1)\n"
                        "  --json P          write the sweep report to "
                        "P (default %s)\n"
                        "  --no-json         skip the report artifact\n"
                        "  --no-fork         run every point fresh "
                        "instead of forking eligible\n"
                        "                    points from a shared warm "
                        "snapshot\n"
                        "  --trace P         stream per-point "
                        "oscar.trace.v1 files derived from P\n"
                        "  --metrics P       write per-point "
                        "oscar.metrics.v1 files derived from P\n"
                        "  --metrics-every N metric sampling period in "
                        "retired instructions\n"
                        "                    (default 1000000; 0 = "
                        "endpoints only)\n"
                        "  --spans P         write per-point "
                        "oscar.spans.v1 files derived from P\n"
                        "                    (serving benches)\n",
                        argv[0], default_json.c_str());
            std::exit(0);
        } else {
            oscar_fatal("unknown bench option '%s' (try --help)",
                        arg.c_str());
        }
    }
    return opts;
}

} // namespace oscar
