/**
 * @file
 * Cross-module integration tests: the paper's qualitative claims must
 * hold end-to-end on short runs.
 */

#include <gtest/gtest.h>

#include "system/sweep.hh"

namespace oscar
{
namespace
{

constexpr InstCount kQuickMeasure = 700'000;

SystemConfig
quick(SystemConfig config)
{
    config.measureInstructions = kQuickMeasure;
    return config;
}

/** Variant / uni-processor baseline throughput, through the sweep. */
double
normalizedThroughput(const SystemConfig &config)
{
    SweepPoint point;
    point.config = config;
    const SweepPointResult result = ParallelSweepRunner::runPoint(point, 0);
    EXPECT_TRUE(result.ok) << result.error;
    return result.normalized;
}

TEST(Integration, ApacheIsOsDominated)
{
    const SimResults r = ExperimentRunner::run(
        quick(ExperimentRunner::baselineConfig(WorkloadKind::Apache)));
    EXPECT_GT(r.privFraction, 0.40);
    EXPECT_LT(r.privFraction, 0.70);
}

TEST(Integration, ComputeWorkloadsBarelyTouchTheOs)
{
    for (WorkloadKind kind :
         {WorkloadKind::Blackscholes, WorkloadKind::Hmmer}) {
        const SimResults r = ExperimentRunner::run(
            quick(ExperimentRunner::baselineConfig(kind)));
        EXPECT_LT(r.privFraction, 0.10) << workloadName(kind);
    }
}

TEST(Integration, OffloadingApacheAtAggressiveLatencyWins)
{
    SystemConfig config = quick(ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 100, 100));
    const double normalized =
        normalizedThroughput(config);
    EXPECT_GT(normalized, 1.02);
}

TEST(Integration, MigrationLatencyDominates)
{
    // Figure 4's first trend: higher one-way latency, lower payoff.
    const double fast = normalizedThroughput(
        quick(ExperimentRunner::hardwareConfig(WorkloadKind::Apache,
                                               100, 100)));
    const double slow = normalizedThroughput(
        quick(ExperimentRunner::hardwareConfig(WorkloadKind::Apache,
                                               100, 5000)));
    EXPECT_GT(fast, slow);
}

TEST(Integration, JbbNeverProfitsAtConservativeLatency)
{
    // Figure 4/5: SPECjbb2005 with a 5,000-cycle migration never beats
    // the baseline for any small threshold.
    for (InstCount n : {InstCount(100), InstCount(1000)}) {
        const double normalized =
            normalizedThroughput(
                quick(ExperimentRunner::hardwareConfig(
                    WorkloadKind::SpecJbb, n, 5000)));
        EXPECT_LT(normalized, 1.01) << "N=" << n;
    }
}

TEST(Integration, TableThreeUtilizationDecreasesWithN)
{
    SimResults at_100 = ExperimentRunner::run(quick(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100,
                                         5000)));
    SimResults at_10000 = ExperimentRunner::run(quick(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 10000,
                                         5000)));
    EXPECT_GT(at_100.osCoreUtilization, at_10000.osCoreUtilization);
    EXPECT_GT(at_100.osCoreUtilization, 0.25);
    EXPECT_GT(at_10000.osCoreUtilization, 0.05);
}

TEST(Integration, QueueingGrowsWithSharingRatio)
{
    // Section V-C: queuing delay grows sharply as more user cores
    // share one OS core.
    SystemConfig one = ExperimentRunner::hardwareConfig(
        WorkloadKind::SpecJbb, 100, 1000);
    one.userCores = 1;
    one.measureInstructions = 400'000;
    SystemConfig four = one;
    four.userCores = 4;
    const SimResults r1 = ExperimentRunner::run(one);
    const SimResults r4 = ExperimentRunner::run(four);
    EXPECT_GT(r4.meanQueueDelay, 3.0 * r1.meanQueueDelay);
    EXPECT_GT(r4.meanQueueDelay, 2000.0);
}

TEST(Integration, HiBeatsDiAtEqualDecisionQuality)
{
    // DI pays per-invocation software cost; HI pays one cycle. Same
    // predictor, same threshold: HI must be at least as fast.
    SystemConfig di = quick(ExperimentRunner::dynamicInstrConfig(
        WorkloadKind::Apache, 100, 250));
    SystemConfig hi = quick(
        ExperimentRunner::hardwareDynamicConfig(WorkloadKind::Apache,
                                                100));
    const double di_norm = normalizedThroughput(di);
    const double hi_norm = normalizedThroughput(hi);
    EXPECT_GT(hi_norm, di_norm);
}

TEST(Integration, SiOffloadsOnlyTheProfiledGiants)
{
    const auto profile =
        ExperimentRunner::profileServices(WorkloadKind::Apache);
    SystemConfig config = quick(ExperimentRunner::staticInstrConfig(
        WorkloadKind::Apache, 5000, profile));
    const SimResults r = ExperimentRunner::run(config);
    // Cutoff 10,000 instructions: only the rare giants migrate.
    EXPECT_LT(r.offloadFraction, 0.05);
    EXPECT_GT(r.offloaded, 0u);
}

TEST(Integration, PredictorAccuracyIsPaperLike)
{
    SystemConfig config = ExperimentRunner::baselineConfig(
        WorkloadKind::Apache);
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 1ULL << 40;
    config.warmupInstructions = 500'000;
    config.measureInstructions = 1'000'000;
    System system(config);
    const SimResults r = system.run();
    // Paper: 73.6% exact + 24.8% within 5%. Accept the neighbourhood.
    EXPECT_GT(r.accuracy.exactRate(), 0.55);
    EXPECT_GT(r.accuracy.exactRate() +
                  r.accuracy.withinToleranceRate(),
              0.85);
    // Mispredictions under-estimate (interrupt extensions).
    EXPECT_GT(r.accuracy.underestimateShare(), 0.5);
}

TEST(Integration, BinaryAccuracyHighAtAllThresholds)
{
    SystemConfig config = ExperimentRunner::baselineConfig(
        WorkloadKind::Apache);
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 1ULL << 40;
    config.warmupInstructions = 500'000;
    config.measureInstructions = 1'000'000;
    System system(config);
    const SimResults r = system.run();
    for (std::size_t i = 0;
         i < PredictorStats::defaultThresholds().size(); ++i) {
        EXPECT_GT(r.accuracy.binaryAccuracy(i), 0.85) << "index " << i;
    }
}

TEST(Integration, CouplingAblationShiftsTheCurve)
{
    // With coupling disabled, full off-loading (N=0) is strictly
    // better than with the calibrated coupling — the coherence cost
    // the paper describes.
    SystemConfig coupled = quick(ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 0, 100));
    SystemConfig uncoupled = coupled;
    uncoupled.osCouplingScale = 0.0;

    SystemConfig base_coupled =
        quick(ExperimentRunner::baselineConfig(WorkloadKind::Apache));
    SystemConfig base_uncoupled = base_coupled;
    base_uncoupled.osCouplingScale = 0.0;

    const double coupled_norm =
        ExperimentRunner::run(coupled).throughput /
        ExperimentRunner::run(base_coupled).throughput;
    const double uncoupled_norm =
        ExperimentRunner::run(uncoupled).throughput /
        ExperimentRunner::run(base_uncoupled).throughput;
    EXPECT_GT(uncoupled_norm, coupled_norm);
}

} // namespace
} // namespace oscar
