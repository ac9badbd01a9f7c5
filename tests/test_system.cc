/**
 * @file
 * System-level tests: building and running whole simulated CMPs.
 */

#include <gtest/gtest.h>

#include "sim/metrics.hh"
#include "system/experiment.hh"
#include "system/system.hh"

namespace oscar
{
namespace
{

SystemConfig
quickBaseline(WorkloadKind kind = WorkloadKind::Apache)
{
    SystemConfig config;
    config.workload = kind;
    config.warmupInstructions = 60'000;
    config.measureInstructions = 250'000;
    return config;
}

TEST(System, BaselineRunProducesSaneResults)
{
    System system(quickBaseline());
    const SimResults r = system.run();
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GE(r.retired, 250'000u);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_LE(r.throughput, 1.0); // in-order 1-IPC peak
    EXPECT_GT(r.privFraction, 0.0);
    EXPECT_LT(r.privFraction, 1.0);
    EXPECT_GT(r.invocations, 0u);
    EXPECT_EQ(r.offloaded, 0u);
    EXPECT_EQ(r.policy, "base");
    EXPECT_EQ(r.workload, "apache");
}

TEST(System, DeterministicAcrossRuns)
{
    System a(quickBaseline());
    System b(quickBaseline());
    const SimResults ra = a.run();
    const SimResults rb = b.run();
    EXPECT_EQ(ra.makespan, rb.makespan);
    EXPECT_EQ(ra.retired, rb.retired);
    EXPECT_EQ(ra.invocations, rb.invocations);
    EXPECT_DOUBLE_EQ(ra.userL2HitRate, rb.userL2HitRate);
}

TEST(System, DifferentSeedsDiffer)
{
    SystemConfig config = quickBaseline();
    config.seed = 1;
    System a(config);
    config.seed = 2;
    System b(config);
    EXPECT_NE(a.run().makespan, b.run().makespan);
}

TEST(System, OffloadRunMovesWorkToOsCore)
{
    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    System system(config);
    const SimResults r = system.run();
    EXPECT_GT(r.offloaded, 0u);
    EXPECT_GT(r.osCoreUtilization, 0.0);
    EXPECT_GT(r.migrationCycles, 0u);
    EXPECT_GT(r.offloadFraction, 0.0);
    EXPECT_LE(r.offloadFraction, 1.0);
}

TEST(System, UnreachableThresholdNeverOffloads)
{
    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 1ULL << 40;
    System system(config);
    const SimResults r = system.run();
    EXPECT_EQ(r.offloaded, 0u);
    EXPECT_DOUBLE_EQ(r.osCoreUtilization, 0.0);
}

TEST(System, ZeroThresholdOffloadsEverything)
{
    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 0;
    System system(config);
    const SimResults r = system.run();
    // Every invocation predicted > 0 migrates; only cold global
    // predictions of 0 stay.
    EXPECT_GT(r.offloadFraction, 0.95);
}

TEST(System, NeverOffloadMatchesBaselineTiming)
{
    // A 2-core system that never off-loads must behave exactly like
    // the uni-processor baseline.
    SystemConfig base_config = quickBaseline();
    System base(base_config);
    const SimResults rb = base.run();

    SystemConfig off_config = quickBaseline();
    off_config.offloadEnabled = true;
    off_config.policy = PolicyKind::HardwarePredictor;
    // Zero decision cost so timing is exactly comparable (HI normally
    // charges one cycle per privileged entry).
    off_config.hiDecisionCost = 0;
    off_config.staticThreshold = 1ULL << 40;
    System off(off_config);
    const SimResults ro = off.run();

    EXPECT_EQ(rb.makespan, ro.makespan);
    EXPECT_EQ(rb.retired, ro.retired);
}

TEST(System, DecisionCostsAccumulate)
{
    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::DynamicInstrumentation;
    config.diDecisionCost = 100;
    config.staticThreshold = 1ULL << 40;
    System system(config);
    const SimResults r = system.run();
    // Every invocation paid ~100 cycles.
    EXPECT_NEAR(static_cast<double>(r.decisionCycles),
                static_cast<double>(r.invocations) * 100.0,
                static_cast<double>(r.decisionCycles) * 0.5);
}

TEST(System, HiDecisionsCostOneCycle)
{
    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 1ULL << 40;
    System system(config);
    const SimResults r = system.run();
    EXPECT_LE(r.decisionCycles, r.invocations * 2);
}

TEST(System, DynamicThresholdControllerEngages)
{
    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.dynamicThreshold = true;
    config.migrationOneWayCycles = 100;
    config.measureInstructions = 600'000;
    // Shrink the controller epochs so several rounds fit in the run.
    config.thresholdConfig.epochScale = 0.002;
    System system(config);
    const SimResults r = system.run();
    EXPECT_GT(system.thresholdController().rounds(), 0u);
    EXPECT_GT(r.finalThreshold, 0u);
    EXPECT_GT(r.warmupPrivFraction, 0.0);
}

TEST(System, MultiThreadAggregatesRetirement)
{
    SystemConfig config = quickBaseline(WorkloadKind::SpecJbb);
    config.userCores = 2;
    System system(config);
    const SimResults r = system.run();
    EXPECT_GE(r.retired, 2u * 250'000u);
}

TEST(System, QueueDelaysAppearUnderContention)
{
    SystemConfig config = quickBaseline(WorkloadKind::Apache);
    config.userCores = 4;
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    System system(config);
    const SimResults r = system.run();
    EXPECT_GT(r.meanQueueDelay, 0.0);
    EXPECT_GE(r.maxQueueDelay, r.meanQueueDelay);
    EXPECT_GT(r.queueWaitCycles, 0u);
}

TEST(System, TailSharesAreMonotone)
{
    System system(quickBaseline());
    const SimResults r = system.run();
    EXPECT_GE(r.osShareAbove[0], r.osShareAbove[1]);
    EXPECT_GE(r.osShareAbove[1], r.osShareAbove[2]);
    EXPECT_GE(r.osShareAbove[2], r.osShareAbove[3]);
    EXPECT_LE(r.osShareAbove[0], r.privFraction + 0.02);
    EXPECT_DOUBLE_EQ(r.osShareAboveN(100), r.osShareAbove[0]);
}

// The three canonical OS-core queue regimes, each cross-checked
// against the registry's os.queue.* series. Warmup is zero so the
// lifetime offers counter and the measured region cover the same
// cycles; the wait series poll the queue's own histogram, which
// SimResults reports too, so they match it exactly.

TEST(System, QueueDelayZeroWhenNothingOffloads)
{
    SystemConfig config = quickBaseline();
    config.warmupInstructions = 0;
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 1ULL << 40; // unreachable: no off-loads
    MetricRegistry registry;
    const SimResults r =
        ExperimentRunner::run(config, nullptr, &registry);
    EXPECT_EQ(r.offloaded, 0u);
    EXPECT_DOUBLE_EQ(r.meanQueueDelay, 0.0);
    EXPECT_DOUBLE_EQ(r.maxQueueDelay, 0.0);
    EXPECT_DOUBLE_EQ(registry.seriesValue("os.queue.offers"), 0.0);
    EXPECT_DOUBLE_EQ(registry.seriesValue("os.queue.wait.count"), 0.0);
    ASSERT_EQ(r.osQueues.size(), 1u);
    EXPECT_EQ(r.osQueues[0].wait.count(), 0u);
}

TEST(System, SingleOffloaderNeverQueues)
{
    // One user thread blocks while its off-load runs, so the OS core
    // is always idle at offer time: every wait sample is exactly zero.
    SystemConfig config = quickBaseline();
    config.warmupInstructions = 0;
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    MetricRegistry registry;
    const SimResults r =
        ExperimentRunner::run(config, nullptr, &registry);
    EXPECT_GT(r.offloaded, 0u);
    EXPECT_DOUBLE_EQ(r.meanQueueDelay, 0.0);
    EXPECT_DOUBLE_EQ(r.maxQueueDelay, 0.0);
    EXPECT_DOUBLE_EQ(registry.seriesValue("os.queue.offers"),
                     static_cast<double>(r.offloaded));
    EXPECT_DOUBLE_EQ(registry.seriesValue("os.queue.wait.count"),
                     static_cast<double>(r.offloaded));
    ASSERT_EQ(r.osQueues.size(), 1u);
    EXPECT_EQ(registry.seriesValue("os.queue.wait.count"),
              static_cast<double>(r.osQueues[0].wait.count()));
    EXPECT_DOUBLE_EQ(registry.seriesValue("os.queue.wait.mean"), 0.0);
    EXPECT_DOUBLE_EQ(registry.seriesValue("os.queue.wait.p99"), 0.0);
}

TEST(System, SaturatedOsCoreQueueDelayMatchesRegistry)
{
    // Four eager off-loaders behind one OS core: requests stack up and
    // the per-request delays recorded by SimResults must agree with
    // the registry's wait histogram sample for sample.
    SystemConfig config = quickBaseline();
    config.warmupInstructions = 0;
    config.userCores = 4;
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    MetricRegistry registry;
    const SimResults r =
        ExperimentRunner::run(config, nullptr, &registry);
    EXPECT_GT(r.offloaded, 0u);
    EXPECT_GT(r.meanQueueDelay, 0.0);
    EXPECT_GE(r.maxQueueDelay, r.meanQueueDelay);
    EXPECT_DOUBLE_EQ(registry.seriesValue("os.queue.offers"),
                     static_cast<double>(r.offloaded));
    // Same samples, different accumulators (Welford vs exact integer
    // sum), so compare to a relative tolerance.
    EXPECT_NEAR(registry.seriesValue("os.queue.wait.mean"),
                r.meanQueueDelay, 1e-6 * (1.0 + r.meanQueueDelay));
    // The series poll the very histogram SimResults reports.
    ASSERT_EQ(r.osQueues.size(), 1u);
    const LatencyHistogram &wait = r.osQueues[0].wait;
    EXPECT_EQ(registry.seriesValue("os.queue.wait.count"),
              static_cast<double>(wait.count()));
    EXPECT_EQ(registry.seriesValue("os.queue.wait.mean"), wait.mean());
    EXPECT_EQ(registry.seriesValue("os.queue.wait.p50"),
              static_cast<double>(wait.quantile(0.5)));
    EXPECT_EQ(registry.seriesValue("os.queue.wait.p99"),
              static_cast<double>(wait.quantile(0.99)));
    // Every admitted request waited no longer than the recorded max.
    EXPECT_LE(registry.seriesValue("os.queue.wait.p99"), r.maxQueueDelay);
}

TEST(SystemDeath, PolicyWithoutOffloadIsFatal)
{
    SystemConfig config = quickBaseline();
    config.policy = PolicyKind::HardwarePredictor;
    config.offloadEnabled = false;
    EXPECT_EXIT(System system(config), ::testing::ExitedWithCode(1),
                "");
}

TEST(SystemDeath, SiWithoutProfileIsFatal)
{
    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::StaticInstrumentation;
    EXPECT_EXIT(System system(config), ::testing::ExitedWithCode(1),
                "");
}

TEST(System, CollectedProfileCoversInvokedServices)
{
    System system(quickBaseline());
    (void)system.run();
    const ServiceProfile &profile = system.collectedProfile();
    EXPECT_GT(profile.totalObservations(), 0u);
    EXPECT_GT(profile.invocations(ServiceId::SpillTrap) +
                  profile.invocations(ServiceId::FillTrap),
              0u);
}

TEST(System, CoherenceTrafficOnlyWithMultipleCores)
{
    System base(quickBaseline());
    EXPECT_EQ(base.run().c2cTransfers, 0u);

    SystemConfig config = quickBaseline();
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    System off(config);
    EXPECT_GT(off.run().c2cTransfers, 0u);
}

} // namespace
} // namespace oscar
