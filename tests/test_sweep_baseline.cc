/**
 * @file
 * Group baselines: a taped fork group normalises its points against a
 * Baseline-policy replay of its own stream tape instead of a fresh
 * uni-core run. That replay runs on the group's machine, whose OS
 * cores stay idle, so it must equal the uni-core baseline bit for bit
 * in throughput, retired instructions and makespan — over the
 * Figure 4, dynamic-N and K=2 / coupled / 512 KB-L2 configurations
 * and several seeds. Every other normalising point divides by a fresh
 * uni-core baseline sub-job. A sweep's normalized throughput must then
 * equal ExperimentRunner's at any job count, with or without forking,
 * and no sweep may touch ExperimentRunner's baseline cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "system/experiment.hh"
#include "system/stream_tape.hh"
#include "system/sweep.hh"
#include "system/system.hh"

namespace oscar
{
namespace
{

SystemConfig
horizons(SystemConfig config, InstCount measure, InstCount warmup)
{
    config.measureInstructions = measure;
    config.warmupInstructions = warmup;
    return config;
}

/**
 * Replay a point's stream under the Baseline policy the way the sweep
 * runner does: the point records the tape on one clone of the group's
 * warm snapshot, and a second clone, reconfigured to the group's
 * warmer at the point's horizon, replays it.
 */
SimResults
groupBaseline(const SystemConfig &config)
{
    System warm(sweepWarmerConfig(config));
    warm.runToMeasurementStart();
    const auto tape = std::make_shared<StreamTape>(config);
    const std::unique_ptr<System> recorder = warm.clone();
    recorder->reconfigureForMeasurement(config);
    recorder->attachTapes(
        {TapeUse::Record, tape, TapeUse::None, nullptr});
    (void)recorder->resumeRun();
    const std::unique_ptr<System> baseline = warm.clone();
    baseline->reconfigureForMeasurement(sweepWarmerConfig(config));
    baseline->attachTapes(
        {TapeUse::Replay, tape, TapeUse::None, nullptr});
    return baseline->resumeRun();
}

void
expectGroupBaselineIsUniCore(const std::vector<SystemConfig> &configs)
{
    ExperimentRunner::clearBaselineCache();
    for (const SystemConfig &config : configs) {
        const SimResults group = groupBaseline(config);
        const SimResults uni = ExperimentRunner::baselineResults(config);
        const std::string what = std::string(workloadName(config.workload))
                                     .append(" seed ")
                                     .append(std::to_string(config.seed));
        EXPECT_EQ(group.throughput, uni.throughput) << what;
        EXPECT_EQ(group.retired, uni.retired) << what;
        EXPECT_EQ(group.makespan, uni.makespan) << what;
    }
    ExperimentRunner::clearBaselineCache();
}

/** Figure 4's six workloads at its 2.4 M / 1 M horizons. */
std::vector<SystemConfig>
figure4(std::uint64_t seed)
{
    std::vector<SystemConfig> configs;
    for (WorkloadKind kind :
         {WorkloadKind::Apache, WorkloadKind::SpecJbb, WorkloadKind::Derby,
          WorkloadKind::Blackscholes, WorkloadKind::Canneal,
          WorkloadKind::Mcf}) {
        configs.push_back(
            horizons(ExperimentRunner::hardwareConfig(kind, 1000, 1000, seed),
                     2'400'000, 1'000'000));
    }
    return configs;
}

/** Figure 5's four workloads. */
const std::vector<WorkloadKind> kFigure5 = {
    WorkloadKind::Apache, WorkloadKind::SpecJbb, WorkloadKind::Derby,
    WorkloadKind::Mcf};

TEST(SweepBaseline, Figure4GroupBaselineIsUniCore)
{
    expectGroupBaselineIsUniCore(figure4(42));
}

TEST(SweepBaseline, Figure4GroupBaselineIsUniCoreAtOtherSeeds)
{
    std::vector<SystemConfig> configs = figure4(7);
    for (const SystemConfig &config : figure4(1337))
        configs.push_back(config);
    expectGroupBaselineIsUniCore(configs);
}

TEST(SweepBaseline, DynamicNGroupBaselineIsUniCore)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t seed : {42u, 7u}) {
        for (WorkloadKind kind : kFigure5) {
            configs.push_back(horizons(
                ExperimentRunner::hardwareDynamicConfig(kind, 5000, seed),
                3'000'000, 1'200'000));
        }
    }
    expectGroupBaselineIsUniCore(configs);
}

TEST(SweepBaseline, TwoOsCoreCoupledSmallL2GroupBaselineIsUniCore)
{
    // Two idle OS cores, a scaled OS coupling and a 512 KB L2: every
    // environment field the baseline keeps, on a machine it lacks.
    std::vector<SystemConfig> configs;
    for (WorkloadKind kind : kFigure5) {
        SystemConfig config = horizons(
            ExperimentRunner::hardwareConfig(kind, 100, 500), 3'000'000,
            1'200'000);
        config.topology.osCores = 2;
        config.osCouplingScale = 1.7;
        config.geometry.l2.sizeBytes = 512 * 1024;
        configs.push_back(config);
    }
    expectGroupBaselineIsUniCore(configs);
}

SweepPoint
point(std::string label, WorkloadKind kind, InstCount n,
      InstCount measure = 120'000)
{
    SweepPoint p;
    p.label = std::move(label);
    p.config = horizons(ExperimentRunner::hardwareConfig(kind, n, 1000),
                        measure, 50'000);
    return p;
}

/** Every normalized value is the runner's uni-core ratio, bit for bit. */
void
expectRunnerNormalization(const std::vector<SweepPoint> &points,
                          const std::vector<SweepPointResult> &results,
                          const std::string &what)
{
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << what << ": " << results[i].error;
        if (!points[i].normalize) {
            EXPECT_EQ(results[i].normalized, 0.0) << what << " " << i;
            continue;
        }
        const SimResults base =
            ExperimentRunner::baselineResults(points[i].config);
        EXPECT_EQ(results[i].normalized,
                  results[i].results.throughput / base.throughput)
            << what << " point " << points[i].label;
    }
}

TEST(SweepBaseline, MixedSweepNormalizesLikeTheRunner)
{
    // An Apache group with two normalising horizons and one point that
    // does not normalise, a single-point Derby group (taped only
    // because of its baseline), a lone non-normalising Mcf point (not
    // taped) and a two-thread point, which normalises against a fresh
    // uni-core baseline sub-job.
    std::vector<SweepPoint> points = {
        point("apache/0", WorkloadKind::Apache, 0),
        point("derby/100", WorkloadKind::Derby, 100),
        point("apache/100", WorkloadKind::Apache, 100),
        point("apache/1000/long", WorkloadKind::Apache, 1000, 180'000),
        point("mcf/100", WorkloadKind::Mcf, 100),
        point("apache/5000", WorkloadKind::Apache, 5000),
    };
    points[4].normalize = false;
    points[5].normalize = false;
    SweepPoint dual = point("apache/dual", WorkloadKind::Apache, 1000);
    dual.config.userCores = 2;
    points.push_back(dual);

    std::vector<std::string> first;
    for (unsigned jobs : {1u, 2u, 4u}) {
        ExperimentRunner::clearBaselineCache();
        ParallelSweepRunner::clearWarmSnapshotCache();
        const auto results = ParallelSweepRunner({jobs}).run(points);
        const std::string what = "jobs " + std::to_string(jobs);
        // The sweep computes its baselines itself.
        EXPECT_EQ(ExperimentRunner::cachedBaselines(), 0u) << what;
        EXPECT_EQ(StreamTape::live(), 0u) << what;
        EXPECT_EQ(ParallelSweepRunner::cachedWarmSnapshots(), 0u) << what;
        expectRunnerNormalization(points, results, what);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::string json = sweepPointResultsJson(results[i]);
            if (first.size() < results.size())
                first.push_back(json);
            else
                EXPECT_EQ(json, first[i]) << what << " point " << i;
        }
    }

    for (unsigned jobs : {1u, 4u}) {
        ExperimentRunner::clearBaselineCache();
        const auto fresh =
            ParallelSweepRunner({jobs, /*fork=*/false}).run(points);
        EXPECT_EQ(ExperimentRunner::cachedBaselines(), 0u);
        EXPECT_EQ(ParallelSweepRunner::cachedWarmSnapshots(), 0u);
        expectRunnerNormalization(points, fresh,
                                  "no-fork jobs " + std::to_string(jobs));
    }
    ExperimentRunner::clearBaselineCache();
}

TEST(SweepBaseline, ReplicasNormalizeAgainstTheirOwnSeed)
{
    // Each replica is its own fork group and normalises against its own
    // seed's baseline before the replicas merge.
    SweepPoint sharded = point("apache/replicas", WorkloadKind::Apache, 100);
    sharded.replicaSeeds = {42, 7};
    ExperimentRunner::clearBaselineCache();
    const auto results = ParallelSweepRunner({2}).run({sharded});
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(ExperimentRunner::cachedBaselines(), 0u);
    EXPECT_EQ(StreamTape::live(), 0u);

    double sum = 0.0;
    for (std::uint64_t seed : sharded.replicaSeeds) {
        SweepPoint one = sharded;
        one.replicaSeeds.clear();
        one.config.seed = seed;
        const auto solo = ParallelSweepRunner({1}).run({one});
        ASSERT_TRUE(solo[0].ok) << solo[0].error;
        sum += solo[0].results.throughput /
               ExperimentRunner::baselineResults(one.config).throughput;
    }
    EXPECT_EQ(results[0].normalized, sum / 2);
    ExperimentRunner::clearBaselineCache();
}

TEST(SweepBaseline, FailedTapeStillNormalizesItsGroup)
{
    // The group's longest-horizon point records the tape; an SI point
    // without a profile fails as it reconfigures, so the tape is never
    // sealed. Three N=1000 points that differ only in migration latency
    // form a placement class: their prober waits on the failed tape and
    // runs live, and its siblings wait on its stall tape but, with no
    // stream tape to walk, run live too. The group's baselines run live
    // from the snapshot, so every other point still equals its solo
    // run bit for bit and normalises like the runner.
    SweepPoint bad = point("apache/si", WorkloadKind::Apache, 100, 180'000);
    bad.config.policy = PolicyKind::StaticInstrumentation;
    std::vector<SweepPoint> points = {
        point("apache/100", WorkloadKind::Apache, 100), bad};
    for (Cycle latency : {Cycle(0), Cycle(1000), Cycle(5000)}) {
        SweepPoint sibling =
            point(std::string("apache/1000/lat=").append(
                      std::to_string(latency)),
                  WorkloadKind::Apache, 1000);
        sibling.config.migrationOneWayCycles = latency;
        points.push_back(sibling);
    }
    std::vector<SweepPoint> good;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i == 1)
            continue;
        good.push_back(points[i]);
        SweepPointResult solo =
            ParallelSweepRunner({1}).run({points[i]}).front();
        ASSERT_TRUE(solo.ok) << solo.error;
        solo.index = i;
        expected.push_back(sweepPointResultsJson(solo));
    }

    for (unsigned jobs : {1u, 2u, 4u}) {
        ExperimentRunner::clearBaselineCache();
        const std::uint64_t replays = StallTape::replays();
        const auto results = ParallelSweepRunner({jobs}).run(points);
        const std::string what = "jobs " + std::to_string(jobs);
        ASSERT_EQ(results.size(), points.size());
        EXPECT_FALSE(results[1].ok) << what;
        EXPECT_EQ(StallTape::replays(), replays) << what;
        EXPECT_EQ(ExperimentRunner::cachedBaselines(), 0u) << what;
        EXPECT_EQ(StreamTape::live(), 0u) << what;
        EXPECT_EQ(StallTape::live(), 0u) << what;
        EXPECT_EQ(ParallelSweepRunner::cachedWarmSnapshots(), 0u) << what;
        std::vector<SweepPointResult> rest;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i == 1)
                continue;
            ASSERT_TRUE(results[i].ok) << what << ": " << results[i].error;
            EXPECT_EQ(sweepPointResultsJson(results[i]),
                      expected[rest.size()])
                << what << " point " << points[i].label;
            rest.push_back(results[i]);
        }
        expectRunnerNormalization(good, rest, what);
    }
    ExperimentRunner::clearBaselineCache();
}

TEST(SweepBaseline, FreshTracedPointNormalizesLikeTheRunner)
{
    // Without forking, a traced single-thread point and an untraced
    // two-thread point both normalise against fresh baseline sub-jobs.
    const std::string trace =
        testing::TempDir() + "sweep_baseline_fresh.trace.jsonl";
    SweepPoint traced = point("apache/traced", WorkloadKind::Apache, 100);
    traced.tracePath = trace;
    SweepPoint dual = point("derby/dual", WorkloadKind::Derby, 1000);
    dual.config.userCores = 2;
    const std::vector<SweepPoint> points = {traced, dual};
    for (unsigned jobs : {1u, 2u, 4u}) {
        ExperimentRunner::clearBaselineCache();
        std::filesystem::remove(trace);
        const auto results =
            ParallelSweepRunner({jobs, /*fork=*/false}).run(points);
        const std::string what = "jobs " + std::to_string(jobs);
        EXPECT_EQ(ExperimentRunner::cachedBaselines(), 0u) << what;
        EXPECT_EQ(StreamTape::live(), 0u) << what;
        EXPECT_EQ(ParallelSweepRunner::cachedWarmSnapshots(), 0u) << what;
        EXPECT_GT(std::filesystem::file_size(trace), 0u) << what;
        expectRunnerNormalization(points, results, what);
    }
    std::filesystem::remove(trace);
    ExperimentRunner::clearBaselineCache();
}

} // namespace
} // namespace oscar
