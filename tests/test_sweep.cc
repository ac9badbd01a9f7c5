/**
 * @file
 * Tests for the parallel sweep runner, the baseline cache's
 * concurrency behavior, the JSON report artifact, and the failure of
 * a point whose trace, metrics or spans file cannot be written.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/span.hh"
#include "system/stream_tape.hh"
#include "system/sweep.hh"

namespace oscar
{
namespace
{

/** Short runs keep the suite fast; determinism is length-independent. */
SystemConfig
quickConfig(WorkloadKind kind, InstCount n, Cycle latency,
            std::uint64_t seed = 42)
{
    SystemConfig config =
        ExperimentRunner::hardwareConfig(kind, n, latency, seed);
    config.warmupInstructions = 60'000;
    config.measureInstructions = 150'000;
    return config;
}

/** An 8+ point grid mixing workloads, thresholds and latencies. */
std::vector<SweepPoint>
sampleGrid()
{
    std::vector<SweepPoint> points;
    int i = 0;
    for (WorkloadKind kind :
         {WorkloadKind::Apache, WorkloadKind::SpecJbb}) {
        for (InstCount n : {InstCount(100), InstCount(1000)}) {
            for (Cycle latency : {Cycle(100), Cycle(5000)}) {
                SweepPoint point;
                point.label = std::string("p").append(std::to_string(i++));
                point.config = quickConfig(kind, n, latency);
                points.push_back(std::move(point));
            }
        }
    }
    return points;
}

TEST(JsonWriter, ProducesStructuredDocument)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "a\"b\\c\n");
    w.field("count", std::uint64_t(3));
    w.field("ratio", 0.5);
    w.field("flag", true);
    w.key("list");
    w.beginArray();
    w.value(std::uint64_t(1));
    w.value(std::uint64_t(2));
    w.endArray();
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(), "{\"name\":\"a\\\"b\\\\c\\n\",\"count\":3,"
                       "\"ratio\":0.5,\"flag\":true,\"list\":[1,2]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeZero)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "0");
    EXPECT_EQ(jsonNumber(0.0 / 0.0), "0");
}

TEST(SweepRunner, SequentialMatchesDirectExecution)
{
    ExperimentRunner::clearBaselineCache();
    SweepPoint point;
    point.label = "direct";
    point.config = quickConfig(WorkloadKind::Apache, 100, 1000);

    // The fresh (non-forked) path must match a direct run exactly;
    // fork-mode equivalences are covered by the snapshot tests.
    ParallelSweepRunner runner({1, /*fork=*/false});
    const auto results = runner.run({point});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;

    const SimResults direct = ExperimentRunner::run(point.config);
    EXPECT_EQ(results[0].results.throughput, direct.throughput);
    EXPECT_EQ(results[0].results.retired, direct.retired);
    EXPECT_GT(results[0].normalized, 0.0);
    EXPECT_GE(results[0].wallMs, 0.0);
}

TEST(SweepRunner, ParallelResultsAreByteIdenticalToSequential)
{
    const std::vector<SweepPoint> points = sampleGrid();
    ASSERT_GE(points.size(), 8u);

    ExperimentRunner::clearBaselineCache();
    const auto sequential = ParallelSweepRunner({1}).run(points);
    ExperimentRunner::clearBaselineCache();
    const auto parallel = ParallelSweepRunner({4}).run(points);

    ASSERT_EQ(sequential.size(), points.size());
    ASSERT_EQ(parallel.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(sequential[i].ok) << sequential[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        // Byte-identical serialization (wall-clock excluded) is the
        // determinism contract the ISSUE acceptance names.
        EXPECT_EQ(sweepPointResultsJson(sequential[i]),
                  sweepPointResultsJson(parallel[i]))
            << "point " << i << " (" << points[i].label << ")";
    }
}

TEST(SweepRunner, FailedPointIsIsolated)
{
    std::vector<SweepPoint> points;

    SweepPoint good;
    good.label = "good";
    good.config = quickConfig(WorkloadKind::Apache, 100, 1000);
    points.push_back(good);

    SweepPoint bad;
    bad.label = "bad";
    bad.config = quickConfig(WorkloadKind::Apache, 100, 1000);
    bad.config.userCores = 0; // validate() calls oscar_fatal
    points.push_back(bad);

    SweepPoint tail;
    tail.label = "tail";
    tail.config = quickConfig(WorkloadKind::Derby, 1000, 100);
    points.push_back(tail);

    for (unsigned jobs : {1u, 3u}) {
        ExperimentRunner::clearBaselineCache();
        const auto results = ParallelSweepRunner({jobs}).run(points);
        ASSERT_EQ(results.size(), 3u);
        EXPECT_TRUE(results[0].ok) << results[0].error;
        EXPECT_FALSE(results[1].ok);
        EXPECT_NE(results[1].error.find("user core"),
                  std::string::npos)
            << results[1].error;
        EXPECT_TRUE(results[2].ok) << results[2].error;
    }
}

TEST(SweepRunner, EffectiveJobsClampsToPointCount)
{
    EXPECT_EQ(ParallelSweepRunner({8}).effectiveJobs(3), 3u);
    EXPECT_EQ(ParallelSweepRunner({2}).effectiveJobs(10), 2u);
    EXPECT_GE(ParallelSweepRunner({0}).effectiveJobs(100), 1u);
}

TEST(SweepRunner, EmptySweepReturnsNoResults)
{
    EXPECT_TRUE(ParallelSweepRunner({4}).run({}).empty());
}

TEST(BaselineCache, ConcurrentRequestsComputeOnce)
{
    ExperimentRunner::clearBaselineCache();
    // All threads request the same baseline; the compute-once future
    // must hand every one of them an identical result.
    SystemConfig config =
        ExperimentRunner::baselineConfig(WorkloadKind::Apache, 42);
    config.measureInstructions = 150'000;
    config.warmupInstructions = 60'000;
    std::vector<std::thread> threads;
    std::vector<double> throughputs(6, 0.0);
    for (std::size_t t = 0; t < throughputs.size(); ++t) {
        threads.emplace_back([t, &config, &throughputs]() {
            const SimResults base =
                ExperimentRunner::baselineResults(config);
            throughputs[t] = base.throughput;
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (std::size_t t = 1; t < throughputs.size(); ++t)
        EXPECT_EQ(throughputs[t], throughputs[0]);
    EXPECT_GT(throughputs[0], 0.0);
}

TEST(SweepReport, EmitsValidSchemaAndWritesFile)
{
    std::vector<SweepPoint> points;
    SweepPoint dynamic;
    dynamic.label = "dynamic";
    dynamic.config = quickConfig(WorkloadKind::Apache, 1000, 1000);
    dynamic.config.dynamicThreshold = true;
    points.push_back(dynamic);

    SweepPoint bad;
    bad.label = "bad";
    bad.config = quickConfig(WorkloadKind::Apache, 100, 1000);
    bad.config.userCores = 0;
    points.push_back(bad);

    ExperimentRunner::clearBaselineCache();
    const auto results = ParallelSweepRunner({2}).run(points);

    SweepReport report("unit-test", 2);
    report.addAll(results);
    const std::string json = report.toJson();

    // Structural sanity: balanced braces/brackets, expected fields.
    std::int64_t braces = 0;
    std::int64_t brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        ASSERT_GE(braces, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_NE(json.find("\"schema\":\"oscar.sweep.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"title\":\"unit-test\""), std::string::npos);
    EXPECT_NE(json.find("\"normalized_throughput\""),
              std::string::npos);
    EXPECT_NE(json.find("\"threshold_trajectory\""),
              std::string::npos);
    // The dynamic point ran the controller: its trajectory must hold
    // at least the measurement-start sample.
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[0].results.thresholdTrajectory.empty());
    // The failed point reports ok=false and carries no results blob.
    EXPECT_NE(json.find("\"ok\":false"), std::string::npos);

    const std::string path = "test_sweep_report.sweep.json";
    ASSERT_TRUE(report.writeTo(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string on_disk((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(on_disk, json + "\n");
    std::remove(path.c_str());
}

TEST(SweepReplicas, MergePoolsEveryQueueOfAMultiOsCorePoint)
{
    // Regression: replica pooling once read only the point-level
    // meanQueueDelay scalar, collapsing a K-queue point to one value.
    // Merging a K=2 work-stealing point must pool every queue's
    // samples, queue by queue.
    SweepPoint point;
    point.label = "k2";
    point.config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/0,
        /*migration_one_way=*/100, /*seed=*/42);
    point.config.userCores = 5;
    point.config.topology.osCores = 2;
    point.config.topology.numaNodes = 2;
    point.config.topology.placement = OsPlacement::Spread;
    point.config.topology.dispatch = OsDispatchPolicy::WorkStealing;
    point.config.topology.spillDepth = 1;
    point.config.topology.intraNodeHopCycles = 20;
    point.config.topology.interNodeHopCycles = 400;
    point.config.warmupInstructions = 20'000;
    point.config.measureInstructions = 15'000;
    point.normalize = false;

    const auto results = ParallelSweepRunner({1}).run({point});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    const SimResults &r = results[0].results;
    ASSERT_EQ(r.osQueues.size(), 2u);
    ASSERT_GT(r.osQueues[1].admitted, 0u)
        << "scenario must exercise the second queue";

    // Folding the same point twice doubles every queue's population
    // (replica pooling) and leaves the pooled mean unchanged.
    const SimResults merged = mergeReplicaResults({r, r});
    ASSERT_EQ(merged.osQueues.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        SCOPED_TRACE(k);
        const OsQueueResult &one = r.osQueues[k];
        const OsQueueResult &both = merged.osQueues[k];
        EXPECT_EQ(one.wait.count(), one.admitted);
        EXPECT_EQ(both.admitted, 2 * one.admitted);
        EXPECT_EQ(both.queueDelay.count(), 2 * one.admitted);
        EXPECT_EQ(both.wait.count(), 2 * one.admitted);
        EXPECT_EQ(both.wait.quantile(0.99), one.wait.quantile(0.99));
    }
    EXPECT_EQ(merged.steals, 2 * r.steals);
    EXPECT_EQ(merged.spills, 2 * r.spills);
    EXPECT_DOUBLE_EQ(merged.meanQueueDelay, r.meanQueueDelay);

    // The report's results JSON carries the per-queue numa block for
    // this point, and omits it for a default-topology point.
    SweepReport report("unit-test", 1);
    report.addAll(results);
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"numa\":{"), std::string::npos);
    EXPECT_NE(json.find("\"topology\":{"), std::string::npos);
    EXPECT_NE(json.find("\"steals_in\""), std::string::npos);

    SweepPoint flat;
    flat.label = "k1";
    flat.config = quickConfig(WorkloadKind::Apache, 1000, 1000);
    const auto flat_results = ParallelSweepRunner({1}).run({flat});
    ASSERT_TRUE(flat_results[0].ok);
    SweepReport flat_report("unit-test", 1);
    flat_report.addAll(flat_results);
    const std::string flat_json = flat_report.toJson();
    EXPECT_EQ(flat_json.find("\"numa\":{"), std::string::npos);
    EXPECT_EQ(flat_json.find("\"topology\":{"), std::string::npos);
}

/** A two-OS-core serving point exercising every mergeable channel. */
SweepPoint
shardedServingPoint(std::vector<std::uint64_t> seeds)
{
    SweepPoint point;
    point.label = "sharded";
    point.config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/0,
        /*migration_one_way=*/100, seeds.front());
    point.config.userCores = 4;
    point.config.topology.osCores = 2;
    point.config.topology.numaNodes = 2;
    point.config.topology.placement = OsPlacement::Spread;
    point.config.topology.dispatch = OsDispatchPolicy::WorkStealing;
    point.config.topology.spillDepth = 1;
    point.config.warmupInstructions = 20'000;
    point.config.measureInstructions = 15'000;
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->dispatch = DispatchPolicy::NodeAffinity;
    serving->meanInterarrivalCycles = 20'000.0;
    serving->tenants = 16;
    serving->tenantSkew = 0.99;
    serving->warmupRequests = 20;
    serving->measureRequests = 60;
    point.config.serving = std::move(serving);
    point.normalize = false;
    point.replicaSeeds = std::move(seeds);
    return point;
}

TEST(SweepReplicas, ShardedPointIsJobsInvariant)
{
    // A sharded point's sub-runs join the worker pool like independent
    // points; whatever the job count or claim order, the fixed-order
    // fold must produce byte-identical output.
    std::vector<SweepPoint> points;
    points.push_back(shardedServingPoint({42, 1337, 7}));
    SweepPoint classic;
    classic.label = "classic";
    classic.config = quickConfig(WorkloadKind::SpecJbb, 1000, 1000);
    points.push_back(classic);

    ExperimentRunner::clearBaselineCache();
    ParallelSweepRunner::clearWarmSnapshotCache();
    const auto sequential = ParallelSweepRunner({1}).run(points);
    ExperimentRunner::clearBaselineCache();
    ParallelSweepRunner::clearWarmSnapshotCache();
    const auto parallel = ParallelSweepRunner({4}).run(points);

    ASSERT_EQ(sequential.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(sequential[i].ok) << sequential[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        EXPECT_EQ(sweepPointResultsJson(sequential[i]),
                  sweepPointResultsJson(parallel[i]))
            << "point " << i;
    }
    EXPECT_EQ(sequential[0].replicaSeeds,
              (std::vector<std::uint64_t>{42, 1337, 7}));
    EXPECT_TRUE(sequential[1].replicaSeeds.empty());
}

TEST(SweepReplicas, MergedResultMatchesIndividuallyRunSeeds)
{
    // Cross-check the sharded fold against first principles: run each
    // seed as its own classic point and fold the SimResults by hand
    // through mergeReplicaResults — the sharded point must serialize
    // to the very same bytes. Alongside, the merged distributions must
    // equal the individual runs' histograms merged by hand, sample for
    // sample (same population, not averaged percentiles).
    const std::vector<std::uint64_t> seeds = {42, 1337};
    const SweepPoint sharded = shardedServingPoint(seeds);

    // Fresh path on both sides: runPoint(point, index) below never
    // forks, so the sharded run must not either — fork-mode warm-up
    // is a (deterministic) methodology change, not a byte-preserving
    // optimization.
    ParallelSweepRunner::clearWarmSnapshotCache();
    const auto results =
        ParallelSweepRunner({2, /*fork=*/false}).run({sharded});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;

    std::vector<SimResults> individual;
    for (const std::uint64_t seed : seeds) {
        SweepPoint solo = sharded;
        solo.replicaSeeds.clear();
        solo.config.seed = seed;
        solo.label = "solo";
        const SweepPointResult run =
            ParallelSweepRunner::runPoint(solo, 0);
        ASSERT_TRUE(run.ok) << run.error;
        individual.push_back(run.results);
    }

    SweepPointResult manual = results[0];
    manual.results = mergeReplicaResults(individual);
    EXPECT_EQ(sweepPointResultsJson(results[0]),
              sweepPointResultsJson(manual));

    const SimResults &merged = results[0].results;
    // Counters sum across replicas...
    EXPECT_EQ(merged.requestsCompleted,
              individual[0].requestsCompleted +
                  individual[1].requestsCompleted);
    EXPECT_EQ(merged.steals, individual[0].steals + individual[1].steals);
    // ...and the latency population is the union of the replicas'.
    LatencyHistogram pooled;
    pooled.merge(individual[0].requestLatency);
    pooled.merge(individual[1].requestLatency);
    EXPECT_EQ(merged.requestLatency.count(), pooled.count());
    for (const double q : {0.5, 0.95, 0.99})
        EXPECT_EQ(merged.requestLatency.quantile(q), pooled.quantile(q));
    // Per-queue pooling: every admission of every replica's every
    // queue lands in the merged per-queue results exactly once.
    ASSERT_EQ(merged.osQueues.size(), 2u);
    for (std::size_t k = 0; k < merged.osQueues.size(); ++k) {
        EXPECT_EQ(merged.osQueues[k].admitted,
                  individual[0].osQueues[k].admitted +
                      individual[1].osQueues[k].admitted);
        EXPECT_EQ(merged.osQueues[k].wait.count(),
                  individual[0].osQueues[k].wait.count() +
                      individual[1].osQueues[k].wait.count());
    }
}

TEST(SweepReplicas, ReplicaMetricsFilesAreIndependentRegistries)
{
    // The no-double-count guarantee: each replica samples its own
    // MetricRegistry into its own ".r<k>" file, so a replica's
    // serving.* and os.queue.q<k>.* series carry that seed's run and
    // nothing else. Proven by byte-comparing a replica's file against
    // the file from running that seed standalone.
    const std::vector<std::uint64_t> seeds = {42, 1337};
    SweepPoint sharded = shardedServingPoint(seeds);
    sharded.metricsPath = "test_sweep_replicas.metrics.jsonl";
    sharded.metricsSampleEvery = 10'000;

    ParallelSweepRunner::clearWarmSnapshotCache();
    const auto results = ParallelSweepRunner({2}).run({sharded});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;

    const std::string r0_path =
        sweepReplicaPath(sharded.metricsPath, 0);
    const std::string r1_path =
        sweepReplicaPath(sharded.metricsPath, 1);
    EXPECT_EQ(r0_path, "test_sweep_replicas.metrics.r0.jsonl");
    EXPECT_EQ(results[0].metricsPath, r0_path);

    SweepPoint solo = sharded;
    solo.replicaSeeds.clear();
    solo.config.seed = seeds[1];
    solo.metricsPath = "test_sweep_replicas.solo.jsonl";
    const SweepPointResult solo_run =
        ParallelSweepRunner::runPoint(solo, 0);
    ASSERT_TRUE(solo_run.ok) << solo_run.error;

    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    const std::string replica_doc = slurp(r1_path);
    // The families the merge must not double-count are present...
    EXPECT_NE(replica_doc.find("serving.completed"), std::string::npos);
    EXPECT_NE(replica_doc.find("os.queue.q1."), std::string::npos);
    // ...and the replica's document is byte-for-byte the standalone
    // run of its seed: no sample from any sibling leaked in.
    EXPECT_EQ(replica_doc, slurp(solo.metricsPath));

    std::remove(r0_path.c_str());
    std::remove(r1_path.c_str());
    std::remove(solo.metricsPath.c_str());
}

TEST(SweepReplicas, FailedReplicaFailsThePointAndIsIsolated)
{
    std::vector<SweepPoint> points;
    SweepPoint good;
    good.label = "good";
    good.config = quickConfig(WorkloadKind::Apache, 100, 1000);
    points.push_back(good);

    SweepPoint bad = shardedServingPoint({42, 1337});
    bad.label = "bad";
    bad.config.userCores = 0; // validate() calls oscar_fatal
    points.push_back(bad);

    for (unsigned jobs : {1u, 3u}) {
        ExperimentRunner::clearBaselineCache();
        ParallelSweepRunner::clearWarmSnapshotCache();
        const auto results = ParallelSweepRunner({jobs}).run(points);
        ASSERT_EQ(results.size(), 2u);
        EXPECT_TRUE(results[0].ok) << results[0].error;
        EXPECT_FALSE(results[1].ok);
        // The error names the replica seed that poisoned the fold.
        EXPECT_NE(results[1].error.find("replica seed 42"),
                  std::string::npos)
            << results[1].error;
        EXPECT_NE(results[1].error.find("user core"), std::string::npos)
            << results[1].error;
    }
}

TEST(SweepStreamTapes, MixedSweepIsJobsInvariant)
{
    // Two taped fork groups (single-thread Apache and SpecJbb points,
    // interleaved by index, one Apache point with a longer horizon so
    // the recorder is not the group's first point) run beside points
    // that never take a tape: two user threads, a sharded serving
    // point and a traced point. Latency siblings share stall tapes:
    // the grid's (workload, N) pairs come at two latencies, and the
    // longer point, which records the stream tape, at three, so it
    // probes for its class too. Group-ordered claiming and replay
    // must leave every result byte-identical at any job count, equal
    // to each point forked on its own, and leave no tape, stall
    // record or snapshot behind.
    std::vector<SweepPoint> points = sampleGrid();
    for (Cycle latency : {Cycle(500), Cycle(0), Cycle(5000)}) {
        SweepPoint longer;
        longer.label = std::string("longer").append(std::to_string(latency));
        longer.config = quickConfig(WorkloadKind::Apache, 500, latency);
        longer.config.measureInstructions = 200'000;
        points.push_back(longer);
    }
    SweepPoint dual;
    dual.label = "dual";
    dual.config = quickConfig(WorkloadKind::Apache, 1000, 100);
    dual.config.userCores = 2;
    points.push_back(dual);
    points.push_back(shardedServingPoint({42, 7}));
    SweepPoint traced;
    traced.label = "traced";
    traced.config = quickConfig(WorkloadKind::SpecJbb, 100, 100);
    traced.tracePath = "test_sweep_tapes.trace.jsonl";
    points.push_back(traced);

    std::vector<std::string> expected;
    ExperimentRunner::clearBaselineCache();
    ParallelSweepRunner::clearWarmSnapshotCache();
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].replicaSeeds.empty()) {
            expected.emplace_back();
            continue;
        }
        // Alone in its sweep, a single-thread point forks and records
        // the tape that only its group baseline replays.
        SweepPointResult solo =
            ParallelSweepRunner({1}).run({points[i]}).front();
        ASSERT_TRUE(solo.ok) << solo.error;
        solo.index = i;
        expected.push_back(sweepPointResultsJson(solo));
    }

    std::vector<std::string> first;
    for (unsigned jobs : {1u, 2u, 4u}) {
        ExperimentRunner::clearBaselineCache();
        ParallelSweepRunner::clearWarmSnapshotCache();
        const std::uint64_t replays = StallTape::replays();
        const auto results = ParallelSweepRunner({jobs}).run(points);
        EXPECT_EQ(StreamTape::live(), 0u) << "jobs " << jobs;
        EXPECT_EQ(StallTape::live(), 0u) << "jobs " << jobs;
        // One sibling per grid pair and two of the longer point's.
        EXPECT_EQ(StallTape::replays() - replays, 6u) << "jobs " << jobs;
        EXPECT_EQ(ParallelSweepRunner::cachedWarmSnapshots(), 0u)
            << "jobs " << jobs;
        ASSERT_EQ(results.size(), points.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            const std::string json = sweepPointResultsJson(results[i]);
            if (!expected[i].empty()) {
                EXPECT_EQ(json, expected[i]) << "point " << i;
            }
            if (first.size() < results.size()) {
                first.push_back(json);
            } else {
                EXPECT_EQ(json, first[i])
                    << "point " << i << " jobs " << jobs;
            }
        }
    }
    ParallelSweepRunner::clearWarmSnapshotCache();
    EXPECT_EQ(ParallelSweepRunner::cachedWarmSnapshots(), 0u);
    EXPECT_EQ(StreamTape::live(), 0u);
    EXPECT_EQ(StallTape::live(), 0u);
    std::remove(traced.tracePath.c_str());
}

TEST(BenchOptions, RejectsNegativeAndOutOfRangeCounts)
{
    auto parse = [](std::vector<std::string> args) {
        args.insert(args.begin(), "bench");
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        return BenchOptions::parse(static_cast<int>(argv.size()),
                                   argv.data(), "");
    };
    ScopedFatalThrows fatal_throws;
    EXPECT_THROW(parse({"--jobs", "-1"}), FatalError);
    EXPECT_THROW(parse({"--jobs", "99999999999"}), FatalError);
    EXPECT_THROW(parse({"--jobs", "4294967296"}), FatalError);
    EXPECT_THROW(parse({"--jobs", "+2"}), FatalError);
    EXPECT_THROW(parse({"--jobs", ""}), FatalError);
    EXPECT_THROW(parse({"--metrics-every", "-5"}), FatalError);
    EXPECT_THROW(parse({"--metrics-every", "18446744073709551616"}),
                 FatalError);
    EXPECT_EQ(parse({"--jobs", "0"}).jobs, 0u);
    EXPECT_EQ(parse({"--jobs", "4294967295"}).jobs, 4294967295u);
    EXPECT_EQ(parse({"--metrics-every", "18446744073709551615"})
                  .metricsEvery,
              18446744073709551615ull);
}

TEST(SweepReplicas, ReplicaPathDerivation)
{
    EXPECT_EQ(sweepReplicaPath("fig.2.jsonl", 1), "fig.2.r1.jsonl");
    EXPECT_EQ(sweepReplicaPath("trace", 0), "trace.r0.jsonl");
}

TEST(SweepReport, HookOmitsArtifactPathsTheReportNames)
{
    // Two runs of one point that differ only in where they write
    // their artifacts compare equal; the report still names the files.
    SweepPointResult one;
    one.label = "point";
    one.ok = true;
    SweepPointResult two = one;
    one.metricsPath = "one/p.metrics.jsonl";
    one.spansPath = "one/p.spans.jsonl";
    two.metricsPath = "two/p.metrics.jsonl";
    two.spansPath = "two/p.spans.jsonl";
    EXPECT_EQ(sweepPointResultsJson(one), sweepPointResultsJson(two));
    EXPECT_EQ(sweepPointResultsJson(one).find("_path"), std::string::npos);

    SweepReport report("paths", 1);
    report.add(one);
    report.add(two);
    const std::string doc = report.toJson();
    for (const SweepPointResult &point : {one, two}) {
        EXPECT_NE(doc.find("\"metrics_path\":\"" + point.metricsPath + "\""),
                  std::string::npos)
            << point.metricsPath;
        EXPECT_NE(doc.find("\"spans_path\":\"" + point.spansPath + "\""),
                  std::string::npos)
            << point.spansPath;
    }
}

TEST(SweepReport, WriteToBadPathFailsGracefully)
{
    // The writer only returns the failure; sweepExitStatus reports it,
    // once.
    SweepReport report("unwritable", 1);
    const std::uint64_t warnings = warnCount();
    EXPECT_FALSE(report.writeTo("/nonexistent-dir/report.json"));
    EXPECT_EQ(warnCount(), warnings);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(sweepExitStatus({}, /*report_written=*/false), 1);
    const std::string stderr_text = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(stderr_text.find("sweep report was not written"),
              std::string::npos)
        << stderr_text;
    EXPECT_EQ(sweepExitStatus({}, /*report_written=*/true), 0);
}

/**
 * Aim point 1 of a three-point sweep at a file that cannot be opened
 * (in a missing directory) and at one that opens but cannot be written
 * (/dev/full): at --jobs 1 and 4 that point fails with an error naming
 * the file, and the other two run exactly as they do without it. The
 * writer itself warns nothing: the point's error is the one report.
 */
void
expectUnwritableArtifactFailsOnlyItsPoint(
    const std::vector<SweepPoint> &points,
    void (*aim)(SweepPoint &point, const std::string &path))
{
    ASSERT_EQ(points.size(), 3u);
    const auto reference = ParallelSweepRunner({1}).run(points);
    for (const std::string path :
         {"/nonexistent-dir/artifact.jsonl", "/dev/full"}) {
        std::vector<SweepPoint> aimed = points;
        aim(aimed[1], path);
        for (unsigned jobs : {1u, 4u}) {
            std::string captured;
            setLogCapture(&captured);
            const std::uint64_t warnings = warnCount();
            const auto results = ParallelSweepRunner({jobs}).run(aimed);
            EXPECT_EQ(warnCount(), warnings)
                << path << " at jobs=" << jobs << ": " << captured;
            setLogCapture(nullptr);
            ASSERT_EQ(results.size(), 3u);
            EXPECT_FALSE(results[1].ok) << path << " at jobs=" << jobs;
            EXPECT_NE(results[1].error.find(path), std::string::npos)
                << results[1].error;
            for (std::size_t i : {0u, 2u}) {
                ASSERT_TRUE(results[i].ok) << results[i].error;
                EXPECT_EQ(sweepPointResultsJson(results[i]),
                          sweepPointResultsJson(reference[i]))
                    << "point " << i << " at jobs=" << jobs;
            }
        }
    }
}

std::vector<SweepPoint>
threeSegmentPoints()
{
    std::vector<SweepPoint> points = sampleGrid();
    points.resize(3);
    return points;
}

TEST(SweepArtifacts, UnwritableTraceFailsItsPoint)
{
    expectUnwritableArtifactFailsOnlyItsPoint(
        threeSegmentPoints(),
        [](SweepPoint &point, const std::string &path) {
            point.tracePath = path;
        });
}

TEST(SweepArtifacts, UnwritableMetricsFailItsPoint)
{
    expectUnwritableArtifactFailsOnlyItsPoint(
        threeSegmentPoints(),
        [](SweepPoint &point, const std::string &path) {
            point.metricsPath = path;
        });
}

TEST(SweepArtifacts, UnwritableSpansFailTheirPoint)
{
    std::vector<SweepPoint> points;
    for (std::uint64_t seed : {42u, 7u, 9u}) {
        SweepPoint point = shardedServingPoint({seed});
        point.label = std::string("s").append(std::to_string(seed));
        point.replicaSeeds.clear();
        points.push_back(std::move(point));
    }
    expectUnwritableArtifactFailsOnlyItsPoint(
        points, [](SweepPoint &point, const std::string &path) {
            point.spansPath = path;
        });
}

TEST(ScopedFatalThrows, ConvertsFatalToException)
{
    SystemConfig config;
    config.userCores = 0;
    bool threw = false;
    try {
        ScopedFatalThrows guard;
        config.validate();
    } catch (const FatalError &e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find("user core"),
                  std::string::npos);
    }
    EXPECT_TRUE(threw);
}

/** The FatalError message of `run`, or "" when it does not throw. */
template <typename Fn>
std::string
fatalMessage(Fn &&run)
{
    try {
        ScopedFatalThrows guard;
        run();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(ScopedFatalThrows, HugeMigrationCostsAreFatal)
{
    // 2^64 - 1 cycles used to wrap event times and panic in the event
    // queue; every migration cost is bounded far below that.
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 1000, ~Cycle{0});
    EXPECT_NE(fatalMessage([&] { config.validate(); })
                  .find("migrationOneWayCycles"),
              std::string::npos);
    config.migrationOneWayCycles = kMaxMigrationCycles;
    config.validate();

    config.topology.interNodeHopCycles = kMaxMigrationCycles + 1;
    EXPECT_NE(fatalMessage([&] { config.validate(); })
                  .find("interNodeHopCycles"),
              std::string::npos);
    config.topology.interNodeHopCycles = 0;
    config.topology.intraNodeHopCycles = ~Cycle{0};
    EXPECT_NE(fatalMessage([&] { config.validate(); })
                  .find("intraNodeHopCycles 18446744073709551615"),
              std::string::npos);
}

TEST(ScopedFatalThrows, BadServingValuesAreFatal)
{
    ServingConfig serving;
    serving.meanInterarrivalCycles = 0.5;
    EXPECT_NE(fatalMessage([&] { serving.validate(); })
                  .find("meanInterarrivalCycles must be >= 1, got 0.5"),
              std::string::npos);
    serving = ServingConfig{};
    serving.burstProbability = std::nan("");
    EXPECT_NE(fatalMessage([&] { serving.validate(); })
                  .find("burstProbability"),
              std::string::npos);
    serving = ServingConfig{};
    serving.clientsPerCore = 0;
    EXPECT_NE(fatalMessage([&] { serving.validate(); })
                  .find("clientsPerCore must be >= 1, got 0"),
              std::string::npos);
    // No double field admits infinity: the field is named, not run.
    const std::pair<double ServingConfig::*, const char *> doubles[] = {
        {&ServingConfig::meanInterarrivalCycles, "meanInterarrivalCycles"},
        {&ServingConfig::diurnalAmplitude, "diurnalAmplitude"},
        {&ServingConfig::burstProbability, "burstProbability"},
        {&ServingConfig::burstRateMultiplier, "burstRateMultiplier"},
        {&ServingConfig::burstMeanRequests, "burstMeanRequests"},
        {&ServingConfig::meanThinkCycles, "meanThinkCycles"},
        {&ServingConfig::tenantSkew, "tenantSkew"},
        {&ServingConfig::meanSegments, "meanSegments"},
        {&ServingConfig::segmentsSigma, "segmentsSigma"},
    };
    for (const auto &[field, name] : doubles) {
        serving = ServingConfig{};
        serving.*field = std::numeric_limits<double>::infinity();
        EXPECT_NE(fatalMessage([&] { serving.validate(); })
                      .find(std::string(name) + " must be"),
                  std::string::npos)
            << name;
    }
}

TEST(ScopedFatalThrows, BadControllerValuesAreFatal)
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    // The fatal of a controller built with `set` applied.
    const auto controllerFatal = [](auto set) {
        ThresholdConfig config;
        set(config);
        return fatalMessage([&] { ThresholdController controller(config); });
    };
    for (const double bad : {nan, inf}) {
        EXPECT_NE(controllerFatal([&](ThresholdConfig &c) {
                      c.privFractionBoundary = bad;
                  }).find("privFractionBoundary must be finite"),
                  std::string::npos);
        EXPECT_NE(controllerFatal([&](ThresholdConfig &c) {
                      c.improvementDelta = -bad;
                  }).find("improvementDelta must be finite"),
                  std::string::npos);
    }
    for (const double bad : {nan, inf, -inf, 0.0, -1.0}) {
        EXPECT_NE(controllerFatal([&](ThresholdConfig &c) {
                      c.epochScale = bad;
                  }).find("epochScale must be finite and positive"),
                  std::string::npos)
            << bad;
    }
    // A finite scale that overflows the scaled epochs is named too;
    // 4e8 * 1e10 instructions still fit.
    EXPECT_NE(controllerFatal([](ThresholdConfig &c) {
                  c.epochScale = 1e11;
              }).find("past 2^63 instructions"),
              std::string::npos);
    EXPECT_EQ(controllerFatal([](ThresholdConfig &c) {
                  c.epochScale = 1e10;
              }),
              "");
}

TEST(ScopedFatalThrows, BadInterruptRateIsFatal)
{
    SystemConfig config;
    for (const double bad :
         {std::nan(""), -1.0, std::numeric_limits<double>::infinity()}) {
        config.interrupts.meanInterarrivalCycles = bad;
        EXPECT_NE(fatalMessage([&] { config.validate(); })
                      .find("interrupts.meanInterarrivalCycles must be "
                            "finite and >= 0"),
                  std::string::npos)
            << bad;
    }
    // 0 still switches interrupts off.
    config.interrupts.meanInterarrivalCycles = 0.0;
    EXPECT_EQ(fatalMessage([&] { config.validate(); }), "");
}

TEST(ScopedFatalThrows, CacheLineAbove64BytesIsFatal)
{
    // The OS pools are laid out in 64-byte lines: a longer line used
    // to misalign the regions placed after them and panic in
    // AddressRegion instead of naming the field.
    SystemConfig config = quickConfig(WorkloadKind::Apache, 1000, 100);
    config.geometry.l1i.lineBytes = 4096;
    config.geometry.l1d.lineBytes = 4096;
    config.geometry.l2.lineBytes = 4096;
    EXPECT_NE(fatalMessage([&] { (void)ExperimentRunner::run(config); })
                  .find("cache line size must be at most 64 bytes, got "
                        "4096"),
              std::string::npos);
}

TEST(ScopedFatalThrows, SpanRecorderOnSegmentModeIsFatal)
{
    System system(quickConfig(WorkloadKind::Apache, 1000, 100));
    SpanRecorder recorder;
    EXPECT_NE(fatalMessage([&] { system.setSpanRecorder(&recorder); })
                  .find("serves no requests"),
              std::string::npos);
}

TEST(SweepRunner, ConfigErrorsFailOnlyTheirPoints)
{
    // Three configurations that used to abort the whole process, each
    // between good neighbours: each fails its own point with one
    // message naming the cause, and every other point equals its run
    // alone, at any job count.
    std::vector<SweepPoint> points = sampleGrid();
    points.resize(4);
    SweepPoint latency = points[0];
    latency.label = "huge-latency";
    latency.config.migrationOneWayCycles = ~Cycle{0};
    SweepPoint serving = shardedServingPoint({42});
    serving.label = "bad-serving";
    serving.replicaSeeds.clear();
    auto bad_rate = std::make_shared<ServingConfig>(*serving.config.serving);
    bad_rate->meanInterarrivalCycles = 0.5;
    serving.config.serving = std::move(bad_rate);
    SweepPoint spans = points[2];
    spans.label = "segment-spans";
    spans.recordSpans = true;
    points.insert(points.begin() + 1, latency);
    points.insert(points.begin() + 3, serving);
    points.insert(points.begin() + 5, spans);
    const std::vector<std::pair<std::size_t, std::string>> bad = {
        {1, "migrationOneWayCycles"},
        {3, "meanInterarrivalCycles"},
        {5, "serves no requests"}};

    std::vector<std::string> solo(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SweepPointResult alone =
            ParallelSweepRunner({1}).run({points[i]}).front();
        alone.index = i;
        solo[i] = sweepPointResultsJson(alone);
    }
    for (unsigned jobs : {1u, 4u}) {
        ExperimentRunner::clearBaselineCache();
        ParallelSweepRunner::clearWarmSnapshotCache();
        const auto results = ParallelSweepRunner({jobs}).run(points);
        ASSERT_EQ(results.size(), points.size());
        std::size_t failed = 0;
        for (const auto &[index, cause] : bad) {
            EXPECT_FALSE(results[index].ok) << points[index].label;
            EXPECT_NE(results[index].error.find(cause), std::string::npos)
                << results[index].error;
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok) {
                ++failed;
                continue;
            }
            EXPECT_EQ(sweepPointResultsJson(results[i]), solo[i])
                << "point " << i << " at jobs=" << jobs;
        }
        EXPECT_EQ(failed, bad.size()) << "jobs " << jobs;
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(sweepExitStatus(results, /*report_written=*/true), 1);
        const std::string reported =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(std::count(reported.begin(), reported.end(), '\n'),
                  static_cast<std::ptrdiff_t>(bad.size()))
            << reported;
    }
    EXPECT_EQ(StreamTape::live(), 0u);
    EXPECT_EQ(StallTape::live(), 0u);
}

TEST(BenchOptions, SpansOnASegmentPointIsOneFatal)
{
    std::vector<SweepPoint> points = sampleGrid();
    points.resize(2);
    BenchOptions opts;
    opts.spansPath = "spans.jsonl";
    const std::string message =
        fatalMessage([&] { applySweepArtifactPaths(points, opts); });
    EXPECT_NE(message.find("point 'p0' serves no requests"),
              std::string::npos)
        << message;

    points = {shardedServingPoint({42})};
    applySweepArtifactPaths(points, opts);
    EXPECT_EQ(points[0].spansPath, "spans.0.jsonl");
}

TEST(ScopedFatalThrowsDeath, FatalStillExitsOutsideGuard)
{
    SystemConfig config;
    config.userCores = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace oscar
