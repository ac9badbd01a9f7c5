/**
 * @file
 * Property tests for the warm-snapshot / fork machinery: clone() at
 * measurement start followed by resumeRun() must be result- and
 * trace-byte-identical to an uninterrupted fresh run, across policies
 * (HI/DI/SI), seeds, multi-OS-core topologies, and serving mode; and
 * the sweep runner's fork grouping (sweepWarmerConfig /
 * sweepWarmupKey) must group exactly the points whose warm-up
 * prefixes are interchangeable. Differential tests for the SoA cache
 * and directory against their retained reference implementations
 * live in test_soa_differential.cc.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "system/experiment.hh"
#include "system/sweep.hh"
#include "system/system.hh"

namespace oscar
{
namespace
{

/** Short horizons keep the suite fast; identity is length-independent. */
constexpr InstCount kWarmup = 60'000;
constexpr InstCount kMeasure = 150'000;

SystemConfig
withHorizons(SystemConfig config)
{
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    return config;
}

/**
 * Every scalar SimResults field compared exactly — doubles included:
 * a forked run replays the very same arithmetic as a fresh run, so
 * even the derived ratios must match bit-for-bit.
 */
void
expectIdenticalResults(const SimResults &a, const SimResults &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.privFraction, b.privFraction);
    EXPECT_EQ(a.userL1dHitRate, b.userL1dHitRate);
    EXPECT_EQ(a.userL1iHitRate, b.userL1iHitRate);
    EXPECT_EQ(a.userL2HitRate, b.userL2HitRate);
    EXPECT_EQ(a.osL2HitRate, b.osL2HitRate);
    EXPECT_EQ(a.combinedL2HitRate, b.combinedL2HitRate);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.offloaded, b.offloaded);
    EXPECT_EQ(a.offloadFraction, b.offloadFraction);
    EXPECT_EQ(a.meanInvocationLength, b.meanInvocationLength);
    EXPECT_EQ(a.osCoreUtilization, b.osCoreUtilization);
    EXPECT_EQ(a.meanQueueDelay, b.meanQueueDelay);
    EXPECT_EQ(a.maxQueueDelay, b.maxQueueDelay);
    EXPECT_EQ(a.numaMigrationsIntra, b.numaMigrationsIntra);
    EXPECT_EQ(a.numaMigrationsInter, b.numaMigrationsInter);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.spills, b.spills);
    EXPECT_EQ(a.decisionCycles, b.decisionCycles);
    EXPECT_EQ(a.migrationCycles, b.migrationCycles);
    EXPECT_EQ(a.queueWaitCycles, b.queueWaitCycles);
    EXPECT_EQ(a.c2cTransfers, b.c2cTransfers);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.finalThreshold, b.finalThreshold);
    EXPECT_EQ(a.thresholdSwitches, b.thresholdSwitches);
    EXPECT_EQ(a.warmupPrivFraction, b.warmupPrivFraction);
    ASSERT_EQ(a.osQueues.size(), b.osQueues.size());
    for (std::size_t i = 0; i < a.osQueues.size(); ++i) {
        EXPECT_EQ(a.osQueues[i].admitted, b.osQueues[i].admitted);
        EXPECT_EQ(a.osQueues[i].stealsIn, b.osQueues[i].stealsIn);
        EXPECT_EQ(a.osQueues[i].stealsOut, b.osQueues[i].stealsOut);
        EXPECT_EQ(a.osQueues[i].spillsIn, b.osQueues[i].spillsIn);
    }
}

/**
 * The core property. A fresh system runs to completion with a trace
 * sink attached (trace A). A second system warms with its own sink
 * (trace B), clones at measurement start, and the clone resumes with
 * a third sink (trace C). Results must match exactly and the
 * concatenation B + C must reproduce A byte for byte.
 */
void
expectForkEquivalence(const SystemConfig &config)
{
    System fresh(config);
    MemoryTraceSink fresh_trace;
    fresh.setTraceSink(&fresh_trace);
    const SimResults fresh_results = fresh.run();

    System warm(config);
    MemoryTraceSink warm_trace;
    warm.setTraceSink(&warm_trace);
    warm.runToMeasurementStart();
    const std::unique_ptr<System> forked = warm.clone();
    MemoryTraceSink fork_trace;
    forked->setTraceSink(&fork_trace);
    const SimResults fork_results = forked->resumeRun();

    expectIdenticalResults(fresh_results, fork_results);

    std::vector<std::string> spliced = warm_trace.lines();
    const std::vector<std::string> tail = fork_trace.lines();
    spliced.insert(spliced.end(), tail.begin(), tail.end());
    EXPECT_EQ(spliced, fresh_trace.lines());
}

TEST(SnapshotFork, HardwarePredictorMatchesFreshRun)
{
    for (std::uint64_t seed : {std::uint64_t(7), std::uint64_t(42)}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        expectForkEquivalence(withHorizons(
            ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000,
                                             500, seed)));
    }
}

TEST(SnapshotFork, DynamicThresholdMatchesFreshRun)
{
    expectForkEquivalence(withHorizons(
        ExperimentRunner::hardwareDynamicConfig(WorkloadKind::SpecJbb,
                                                500)));
}

TEST(SnapshotFork, DynamicInstrumentationMatchesFreshRun)
{
    expectForkEquivalence(withHorizons(ExperimentRunner::dynamicInstrConfig(
        WorkloadKind::Apache, 500, 50)));
}

TEST(SnapshotFork, StaticInstrumentationMatchesFreshRun)
{
    const auto profile =
        ExperimentRunner::profileServices(WorkloadKind::Apache);
    expectForkEquivalence(withHorizons(ExperimentRunner::staticInstrConfig(
        WorkloadKind::Apache, 500, profile)));
}

TEST(SnapshotFork, MultiOsCoreTopologyMatchesFreshRun)
{
    SystemConfig config = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100, 500));
    config.userCores = 4;
    config.topology.osCores = 2;
    config.topology.numaNodes = 2;
    config.topology.placement = OsPlacement::Spread;
    config.topology.dispatch = OsDispatchPolicy::WorkStealing;
    config.topology.spillDepth = 1;
    expectForkEquivalence(config);
}

TEST(SnapshotFork, ServingModeMatchesFreshRun)
{
    SystemConfig config =
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000, 500);
    auto serving = std::make_shared<ServingConfig>();
    serving->meanInterarrivalCycles = 8'000.0;
    serving->tenants = 8;
    serving->meanSegments = 2.0;
    serving->warmupRequests = 40;
    serving->measureRequests = 120;
    config.serving = std::move(serving);
    expectForkEquivalence(config);
}

TEST(SnapshotFork, OneSnapshotForkedTwiceIsDeterministic)
{
    const SystemConfig config = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::SpecJbb, 1000,
                                         500));
    System warm(sweepWarmerConfig(config));
    warm.runToMeasurementStart();

    const std::unique_ptr<System> first = warm.clone();
    first->reconfigureForMeasurement(config);
    const SimResults first_results = first->resumeRun();

    const std::unique_ptr<System> second = warm.clone();
    second->reconfigureForMeasurement(config);
    const SimResults second_results = second->resumeRun();

    expectIdenticalResults(first_results, second_results);
}

/**
 * A warm snapshot forks only within its fork group: reconfiguring it
 * to a config of another sweepWarmupKey — here another L2 size or
 * another interrupt rate, both of which shaped the warm prefix — is a
 * simulator bug, not a user error.
 */
TEST(SnapshotForkDeath, ReconfigureAcrossForkGroupsPanics)
{
    const SystemConfig config = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000,
                                         100));
    System warm(sweepWarmerConfig(config));
    warm.runToMeasurementStart();

    SystemConfig other_l2 = config;
    other_l2.geometry.l2.sizeBytes /= 2;
    EXPECT_DEATH(warm.clone()->reconfigureForMeasurement(other_l2),
                 "sweepWarmupKey");

    SystemConfig other_irq = config;
    other_irq.interrupts.meanInterarrivalCycles += 100'000.0;
    EXPECT_DEATH(warm.clone()->reconfigureForMeasurement(other_irq),
                 "sweepWarmupKey");

    // Within the group the same snapshot reconfigures silently.
    warm.clone()->reconfigureForMeasurement(config);
}

/**
 * Forked sweeps must not depend on the job count: whichever worker
 * warms the shared snapshot, every point forks from the same state.
 */
TEST(SnapshotFork, ForkedSweepIsJobCountInvariant)
{
    std::vector<SweepPoint> points;
    for (InstCount n : {InstCount(100), InstCount(1000)}) {
        for (WorkloadKind kind :
             {WorkloadKind::Apache, WorkloadKind::SpecJbb}) {
            SweepPoint point;
            point.label = std::string("p").append(
                std::to_string(points.size()));
            point.config = withHorizons(
                ExperimentRunner::hardwareConfig(kind, n, 500));
            points.push_back(std::move(point));
        }
    }

    ParallelSweepRunner::clearWarmSnapshotCache();
    ExperimentRunner::clearBaselineCache();
    const ParallelSweepRunner sequential({1, /*fork=*/true});
    const std::vector<SweepPointResult> seq_results =
        sequential.run(points);

    ParallelSweepRunner::clearWarmSnapshotCache();
    ExperimentRunner::clearBaselineCache();
    const ParallelSweepRunner parallel({4, /*fork=*/true});
    const std::vector<SweepPointResult> par_results =
        parallel.run(points);

    ASSERT_EQ(seq_results.size(), par_results.size());
    for (std::size_t i = 0; i < seq_results.size(); ++i) {
        ASSERT_TRUE(seq_results[i].ok);
        ASSERT_TRUE(par_results[i].ok);
        EXPECT_EQ(sweepPointResultsJson(seq_results[i]),
                  sweepPointResultsJson(par_results[i]));
    }
}

// --- Fork grouping -----------------------------------------------------

TEST(SweepWarmerConfig, CanonicalizesPolicyKeepsEnvironment)
{
    SystemConfig config = withHorizons(
        ExperimentRunner::dynamicInstrConfig(WorkloadKind::SpecJbb, 750,
                                             50, 9));
    config.osCouplingScale = 1.5;
    const SystemConfig warmer = sweepWarmerConfig(config);

    EXPECT_EQ(warmer.policy, PolicyKind::Baseline);
    EXPECT_FALSE(warmer.dynamicThreshold);
    EXPECT_EQ(warmer.siProfile, nullptr);

    EXPECT_EQ(warmer.workload, config.workload);
    EXPECT_EQ(warmer.seed, config.seed);
    EXPECT_EQ(warmer.warmupInstructions, config.warmupInstructions);
    EXPECT_EQ(warmer.measureInstructions, config.measureInstructions);
    EXPECT_EQ(warmer.osCouplingScale, config.osCouplingScale);
    EXPECT_EQ(warmer.offloadEnabled, config.offloadEnabled);
}

TEST(SweepWarmupKey, PolicyKnobsShareAKey)
{
    // Points that differ only in the off-loading machinery — policy,
    // threshold, decision costs, migration latency — must share one
    // warm snapshot; that sharing is the entire fork win.
    const SystemConfig hi = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100, 500));
    const SystemConfig hi_big_n = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 5000, 500));
    const SystemConfig hi_slow_link = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100,
                                         5000));
    const SystemConfig di = withHorizons(ExperimentRunner::dynamicInstrConfig(
        WorkloadKind::Apache, 500, 50));

    const std::string key = sweepWarmupKey(hi);
    EXPECT_EQ(sweepWarmupKey(hi_big_n), key);
    EXPECT_EQ(sweepWarmupKey(hi_slow_link), key);
    EXPECT_EQ(sweepWarmupKey(di), key);
}

TEST(SweepWarmupKey, EnvironmentKnobsSplitKeys)
{
    const SystemConfig base = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100, 500));
    const std::string key = sweepWarmupKey(base);

    SystemConfig other_workload = base;
    other_workload.workload = WorkloadKind::SpecJbb;
    EXPECT_NE(sweepWarmupKey(other_workload), key);

    SystemConfig other_seed = base;
    other_seed.seed = 43;
    EXPECT_NE(sweepWarmupKey(other_seed), key);

    SystemConfig other_warmup = base;
    other_warmup.warmupInstructions = kWarmup * 2;
    EXPECT_NE(sweepWarmupKey(other_warmup), key);

    SystemConfig other_coupling = base;
    other_coupling.osCouplingScale = 2.0;
    EXPECT_NE(sweepWarmupKey(other_coupling), key);

    SystemConfig other_topology = base;
    other_topology.topology.osCores = 2;
    other_topology.topology.numaNodes = 2;
    EXPECT_NE(sweepWarmupKey(other_topology), key);
}

/**
 * Satellite regression: the baseline cache must key on the full
 * warm-up environment. Two configs that differ only in coupling
 * scale simulate different machines, so their cached baselines must
 * be distinct runs — under the old workload-only key the second call
 * silently returned the first machine's baseline.
 */
TEST(BaselineCache, KeysOnFullWarmupEnvironment)
{
    ExperimentRunner::clearBaselineCache();
    SystemConfig tight = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100, 500));
    SystemConfig loose = tight;
    loose.osCouplingScale = 4.0;

    const SimResults tight_base = ExperimentRunner::baselineResults(tight);
    const SimResults loose_base = ExperimentRunner::baselineResults(loose);
    // A 4x coupling scale lengthens OS service on the baseline
    // machine; identical results would mean the cache conflated them.
    EXPECT_NE(tight_base.throughput, loose_base.throughput);
}

} // namespace
} // namespace oscar
