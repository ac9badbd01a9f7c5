/**
 * @file
 * Property-style sweeps over configuration space, using parameterized
 * gtest. Each property is an invariant the simulator must uphold for
 * *every* configuration, not a calibrated value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>

#include "core/run_length_predictor.hh"
#include "sim/random.hh"
#include "system/experiment.hh"

namespace oscar
{
namespace
{

constexpr InstCount kQuickMeasure = 220'000;

std::string
kindName(WorkloadKind kind)
{
    std::string name = workloadName(kind);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

// ---------------------------------------------------------------------
// Property 1: every workload runs to completion on the baseline with
// sane, accounting-consistent results.

class BaselineSanity : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(BaselineSanity, RunsAndBalances)
{
    SystemConfig config = ExperimentRunner::baselineConfig(GetParam());
    config.warmupInstructions = 50'000;
    config.measureInstructions = kQuickMeasure;
    System system(config);
    const SimResults r = system.run();

    EXPECT_GE(r.retired, kQuickMeasure);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_LE(r.throughput, 1.0);
    EXPECT_GE(r.privFraction, 0.0);
    EXPECT_LE(r.privFraction, 1.0);
    EXPECT_EQ(r.offloaded, 0u);
    EXPECT_EQ(r.migrationCycles, 0u);
    EXPECT_EQ(r.queueWaitCycles, 0u);
    EXPECT_EQ(r.c2cTransfers, 0u); // single core: no coherence traffic
    // Tail shares are a sub-population of privileged instructions.
    EXPECT_LE(r.osShareAbove[0], r.privFraction + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BaselineSanity,
    ::testing::Values(WorkloadKind::Apache, WorkloadKind::SpecJbb,
                      WorkloadKind::Derby, WorkloadKind::Blackscholes,
                      WorkloadKind::Canneal, WorkloadKind::FastaProtein,
                      WorkloadKind::Mummer, WorkloadKind::Mcf,
                      WorkloadKind::Hmmer),
    [](const auto &info) { return kindName(info.param); });

// ---------------------------------------------------------------------
// Property 2: across (threshold, latency) the off-load accounting is
// internally consistent.

class OffloadAccounting
    : public ::testing::TestWithParam<std::tuple<InstCount, Cycle>>
{
};

TEST_P(OffloadAccounting, InvariantsHold)
{
    const auto [threshold, latency] = GetParam();
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, threshold, latency);
    config.warmupInstructions = 50'000;
    config.measureInstructions = kQuickMeasure;
    System system(config);
    const SimResults r = system.run();

    EXPECT_LE(r.offloaded, r.invocations);
    EXPECT_NEAR(r.offloadFraction,
                r.invocations ? static_cast<double>(r.offloaded) /
                                    r.invocations
                              : 0.0,
                1e-12);
    // Each off-load pays exactly two one-way migrations (the return
    // may still be pending for at most one in-flight invocation per
    // thread when the run ends).
    EXPECT_GE(r.migrationCycles + 2 * latency + 1,
              2 * latency * r.offloaded);
    EXPECT_LE(r.migrationCycles, 2 * latency * (r.offloaded + 1));
    // OS-core utilization is a fraction.
    EXPECT_GE(r.osCoreUtilization, 0.0);
    EXPECT_LE(r.osCoreUtilization, 1.0);
    // Queue delays only exist when something was off-loaded.
    if (r.offloaded == 0) {
        EXPECT_DOUBLE_EQ(r.meanQueueDelay, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdByLatency, OffloadAccounting,
    ::testing::Combine(::testing::Values(InstCount(0), InstCount(100),
                                         InstCount(1000),
                                         InstCount(10000)),
                       ::testing::Values(Cycle(0), Cycle(100),
                                         Cycle(5000))),
    [](const auto &info) {
        return std::string("N")
            .append(std::to_string(std::get<0>(info.param)))
            .append("_lat")
            .append(std::to_string(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------
// Property 3: lowering the threshold never lowers the off-load count.

class ThresholdMonotonicity
    : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(ThresholdMonotonicity, OffloadCountDecreasesWithN)
{
    std::uint64_t last = std::numeric_limits<std::uint64_t>::max();
    for (InstCount n : {InstCount(0), InstCount(100), InstCount(1000),
                        InstCount(10000)}) {
        SystemConfig config = ExperimentRunner::hardwareConfig(
            GetParam(), n, 100);
        config.warmupInstructions = 50'000;
        config.measureInstructions = kQuickMeasure;
        const SimResults r = ExperimentRunner::run(config);
        // Allow a small tolerance: the workload path diverges once
        // decisions change, so counts are not strictly comparable.
        EXPECT_LE(r.offloaded, last + last / 8 + 50) << "N=" << n;
        last = r.offloaded;
    }
}

INSTANTIATE_TEST_SUITE_P(ServerWorkloads, ThresholdMonotonicity,
                         ::testing::Values(WorkloadKind::Apache,
                                           WorkloadKind::SpecJbb,
                                           WorkloadKind::Derby),
                         [](const auto &info) {
                             return kindName(info.param);
                         });

// ---------------------------------------------------------------------
// Property 4: determinism — identical configs give identical results
// across policies.

class PolicyDeterminism : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(PolicyDeterminism, RepeatRunsIdentical)
{
    auto make_config = [&] {
        SystemConfig config = ExperimentRunner::baselineConfig(
            WorkloadKind::Derby, 77);
        config.warmupInstructions = 50'000;
        config.measureInstructions = kQuickMeasure;
        if (GetParam() != PolicyKind::Baseline) {
            config.offloadEnabled = true;
            config.policy = GetParam();
            config.migrationOneWayCycles = 100;
            if (GetParam() == PolicyKind::StaticInstrumentation) {
                auto profile = std::make_shared<ServiceProfile>();
                profile->observe(ServiceId::Fsync, 6500);
                profile->observe(ServiceId::Read, 1300);
                config.siProfile = profile;
            }
        }
        return config;
    };
    const SimResults a = ExperimentRunner::run(make_config());
    const SimResults b = ExperimentRunner::run(make_config());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.offloaded, b.offloaded);
    EXPECT_EQ(a.invocations, b.invocations);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDeterminism,
    ::testing::Values(PolicyKind::Baseline,
                      PolicyKind::StaticInstrumentation,
                      PolicyKind::DynamicInstrumentation,
                      PolicyKind::HardwarePredictor),
    [](const auto &info) {
        return std::string(policyShortName(info.param));
    });

// ---------------------------------------------------------------------
// Property 5: cache-geometry sweeps keep the hierarchy consistent.

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(GeometrySweep, RunsWithAnyReasonableL2)
{
    const auto [l2_kb, assoc] = GetParam();
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 1000, 100);
    config.geometry.l2.sizeBytes =
        static_cast<std::uint64_t>(l2_kb) * 1024;
    config.geometry.l2.assoc = assoc;
    config.warmupInstructions = 40'000;
    config.measureInstructions = 150'000;
    const SimResults r = ExperimentRunner::run(config);
    EXPECT_GT(r.throughput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    L2Shapes, GeometrySweep,
    ::testing::Combine(::testing::Values(256u, 512u, 1024u, 2048u),
                       ::testing::Values(4u, 8u, 16u)),
    [](const auto &info) {
        return "kb" + std::to_string(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Property 6: bigger caches never hurt baseline throughput (with the
// same latencies).

TEST(GeometryProperty, BiggerL2NeverSlower)
{
    double last = 0.0;
    for (unsigned kb : {256u, 1024u, 4096u}) {
        SystemConfig config =
            ExperimentRunner::baselineConfig(WorkloadKind::Apache);
        config.geometry.l2.sizeBytes = kb * 1024ULL;
        config.warmupInstructions = 60'000;
        config.measureInstructions = kQuickMeasure;
        const SimResults r = ExperimentRunner::run(config);
        EXPECT_GE(r.throughput, last * 0.995) << kb << " KB";
        last = r.throughput;
    }
}

// ---------------------------------------------------------------------
// Property 7: the predictor-organization choice never breaks a run.

class PredictorOrganizationSweep
    : public ::testing::TestWithParam<PredictorKind>
{
};

TEST_P(PredictorOrganizationSweep, HiRunsWithAnyOrganization)
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::SpecJbb, 1000, 100);
    config.predictor = GetParam();
    config.warmupInstructions = 50'000;
    config.measureInstructions = kQuickMeasure;
    const SimResults r = ExperimentRunner::run(config);
    EXPECT_GT(r.accuracy.samples(), 0u);
    EXPECT_GT(r.throughput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Organizations, PredictorOrganizationSweep,
                         ::testing::Values(PredictorKind::Cam,
                                           PredictorKind::DirectMapped,
                                           PredictorKind::Infinite),
                         [](const auto &info) {
                             switch (info.param) {
                               case PredictorKind::Cam:
                                 return "Cam";
                               case PredictorKind::DirectMapped:
                                 return "DirectMapped";
                               default:
                                 return "Infinite";
                             }
                         });

// ---------------------------------------------------------------------
// Property 8: predictor invariants under random invocation streams.

std::string
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Cam: return "Cam";
      case PredictorKind::DirectMapped: return "DirectMapped";
      case PredictorKind::Infinite: return "Infinite";
    }
    return "unknown";
}

class PredictorRandomStream
    : public ::testing::TestWithParam<PredictorKind>
{
};

TEST_P(PredictorRandomStream, ConfidenceStaysIn2BitRange)
{
    auto predictor = makePredictor(GetParam());
    Rng rng(0xC0FFEEu + static_cast<unsigned>(GetParam()));
    for (int i = 0; i < 20'000; ++i) {
        // A small AState pool forces hits, aliasing and retraining.
        const std::uint64_t astate = rng.nextBounded(64);
        const RunLengthPrediction pred = predictor->predict(astate);
        EXPECT_LE(pred.confidence, confidence::kMax);
        // A run-length distribution with both clustered and wild
        // values so confidence moves in both directions.
        const InstCount actual =
            rng.nextBool(0.7)
                ? 100 + rng.nextBounded(5)
                : rng.nextBounded(100'000);
        predictor->update(astate, actual);
    }
}

TEST_P(PredictorRandomStream,
       GlobalFallbackIsMeanOfLastThreeObservations)
{
    auto predictor = makePredictor(GetParam());
    Rng rng(0xBADC0DEu);
    std::deque<InstCount> recent;
    for (int i = 0; i < 5'000; ++i) {
        const InstCount actual = rng.nextBounded(50'000);
        predictor->update(rng.next64(), actual);
        recent.push_back(actual);
        if (recent.size() > 3)
            recent.pop_front();
        // Reference model: integer mean of the last min(3, seen)
        // observed lengths, regardless of AState.
        InstCount sum = 0;
        for (InstCount length : recent)
            sum += length;
        const InstCount expected =
            sum / static_cast<InstCount>(recent.size());
        EXPECT_EQ(predictor->global().prediction(), expected)
            << "after observation " << i;
    }
}

TEST_P(PredictorRandomStream, ColdPredictorFallsBackToGlobal)
{
    auto predictor = makePredictor(GetParam());
    predictor->update(0x1111, 900);
    predictor->update(0x2222, 1100);
    // A never-seen AState must fall back to the global mean.
    const RunLengthPrediction pred = predictor->predict(0x777777);
    EXPECT_TRUE(pred.fromGlobal);
    EXPECT_EQ(pred.length, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Organizations, PredictorRandomStream,
                         ::testing::Values(PredictorKind::Cam,
                                           PredictorKind::DirectMapped,
                                           PredictorKind::Infinite),
                         [](const auto &info) {
                             return predictorKindName(info.param);
                         });

TEST(CamPredictorProperty, OccupancyNeverExceedsCapacity)
{
    CamPredictor cam; // paper-sized: 200 entries
    Rng rng(2026);
    EXPECT_EQ(cam.capacity(), 200u);
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t astate = rng.next64();
        (void)cam.predict(astate);
        cam.update(astate, rng.nextBounded(10'000));
        ASSERT_LE(cam.occupancy(), cam.capacity());
    }
    // 10k distinct AStates through a 200-entry CAM: it must be full.
    EXPECT_EQ(cam.occupancy(), cam.capacity());
}

TEST(CamPredictorProperty, SmallCamStaysBoundedAndRecallsHotEntry)
{
    CamPredictor cam(4);
    Rng rng(7);
    for (int i = 0; i < 1'000; ++i) {
        // AState 42 stays hot; a churn of cold entries competes for
        // the remaining three slots via LRU.
        (void)cam.predict(42);
        cam.update(42, 500);
        const std::uint64_t cold = 1'000 + rng.nextBounded(100);
        (void)cam.predict(cold);
        cam.update(cold, rng.nextBounded(10'000));
        ASSERT_LE(cam.occupancy(), 4u);
    }
    const RunLengthPrediction pred = cam.predict(42);
    EXPECT_TRUE(pred.tableHit);
    EXPECT_EQ(pred.length, 500u);
    EXPECT_EQ(pred.confidence, confidence::kMax);
}

TEST(ConfidenceCounterProperty, UpDownSaturateAtBounds)
{
    std::uint8_t c = 0;
    EXPECT_EQ(confidence::down(c), 0u);
    for (int i = 0; i < 10; ++i)
        c = confidence::up(c);
    EXPECT_EQ(c, confidence::kMax);
    EXPECT_EQ(confidence::up(c), confidence::kMax);
    c = confidence::down(c);
    EXPECT_EQ(c, confidence::kMax - 1);
}

} // namespace
} // namespace oscar
