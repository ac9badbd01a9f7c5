/**
 * @file
 * Stall tapes: inside a taped fork group, the points that differ only
 * in migration latency read their stalls from one prober's record
 * instead of probing the memory system. Sweeping the Figure 4,
 * Figure 5 (with the 512 KB-L2 aside) and Table III grids, a K=2
 * least-loaded group and a heavy-interrupt group must give every
 * point exactly what it gets swept alone, where nothing is shared;
 * one prober must run per placement class; and a record attached to a
 * point of another class must panic at the first segment that differs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "system/experiment.hh"
#include "system/stream_tape.hh"
#include "system/sweep.hh"
#include "system/system.hh"

namespace oscar
{
namespace
{

/** A point at the benchmark's --tiny horizons (1/20 of the paper's). */
SweepPoint
tinyPoint(std::string label, SystemConfig config, InstCount measure,
          InstCount warmup)
{
    SweepPoint point;
    point.label = std::move(label);
    point.config = std::move(config);
    point.config.measureInstructions = measure / 20;
    point.config.warmupInstructions = warmup / 20;
    return point;
}

/** Figure 4: six thresholds by five latencies for six workloads. */
std::vector<SweepPoint>
figure4Grid(std::uint64_t seed)
{
    std::vector<SweepPoint> points;
    for (WorkloadKind kind :
         {WorkloadKind::Apache, WorkloadKind::SpecJbb, WorkloadKind::Derby,
          WorkloadKind::Blackscholes, WorkloadKind::Canneal,
          WorkloadKind::Mcf}) {
        for (Cycle latency : {0, 100, 500, 1000, 5000}) {
            for (InstCount n : {0, 100, 500, 1000, 5000, 10000}) {
                points.push_back(tinyPoint(
                    "fig4/" + std::to_string(static_cast<int>(kind)) +
                        "/N=" + std::to_string(n) +
                        "/lat=" + std::to_string(latency),
                    ExperimentRunner::hardwareConfig(kind, n, latency,
                                                     seed),
                    2'400'000, 1'000'000));
            }
        }
    }
    return points;
}

/** Figure 5 (SI, DI, HI at two latencies), its aside, and Table III. */
std::vector<SweepPoint>
figure5AndTable3Grid(std::uint64_t seed)
{
    std::vector<SweepPoint> points;
    for (WorkloadKind kind : {WorkloadKind::Apache, WorkloadKind::SpecJbb,
                              WorkloadKind::Derby, WorkloadKind::Mcf}) {
        const auto profile = ExperimentRunner::profileServices(kind, seed);
        for (Cycle latency : {5000, 100}) {
            const std::string base =
                "fig5/" + std::to_string(static_cast<int>(kind)) +
                "/lat=" + std::to_string(latency);
            points.push_back(tinyPoint(
                base + "/si",
                ExperimentRunner::staticInstrConfig(kind, latency, profile,
                                                    seed),
                3'000'000, 1'200'000));
            points.push_back(tinyPoint(
                base + "/di",
                ExperimentRunner::dynamicInstrConfig(kind, latency, 100,
                                                     seed),
                3'000'000, 1'200'000));
            points.push_back(tinyPoint(
                base + "/hi",
                ExperimentRunner::hardwareDynamicConfig(kind, latency,
                                                        seed),
                3'000'000, 1'200'000));
        }
    }
    for (Cycle latency : {100, 500, 1000, 2500, 5000}) {
        SystemConfig aside = ExperimentRunner::hardwareConfig(
            WorkloadKind::Apache, 100, latency, seed);
        aside.geometry.l2.sizeBytes = 512 * 1024;
        points.push_back(tinyPoint("aside/lat=" + std::to_string(latency),
                                   aside, 3'000'000, 1'200'000));
    }
    for (WorkloadKind kind : {WorkloadKind::Apache, WorkloadKind::SpecJbb,
                              WorkloadKind::Derby}) {
        for (InstCount n : {100, 1000, 5000, 10000}) {
            SweepPoint point = tinyPoint(
                "table3/" + std::to_string(static_cast<int>(kind)) +
                    "/N=" + std::to_string(n),
                ExperimentRunner::hardwareConfig(kind, n, 5000, seed),
                3'000'000, 1'000'000);
            point.normalize = false;
            points.push_back(std::move(point));
        }
    }
    return points;
}

/** Two OS cores with least-loaded dispatch. */
std::vector<SweepPoint>
topologyGroup()
{
    std::vector<SweepPoint> points;
    for (Cycle latency : {0, 100, 5000}) {
        for (InstCount n : {100, 1000}) {
            SystemConfig config = ExperimentRunner::hardwareConfig(
                WorkloadKind::Apache, n, latency);
            config.topology.osCores = 2;
            config.topology.dispatch = OsDispatchPolicy::LeastLoaded;
            config.topology.intraNodeHopCycles = 300;
            points.push_back(tinyPoint(
                "k2/N=" + std::to_string(n) + "/lat=" +
                    std::to_string(latency),
                config, 2'400'000, 1'000'000));
        }
    }
    return points;
}

/** Interrupts frequent enough to extend most interruptible calls. */
std::vector<SweepPoint>
heavyInterruptGroup()
{
    std::vector<SweepPoint> points;
    for (Cycle latency : {0, 500, 5000}) {
        for (InstCount n : {100, 5000}) {
            SystemConfig config = ExperimentRunner::hardwareConfig(
                WorkloadKind::SpecJbb, n, latency, 7);
            config.interrupts.meanInterarrivalCycles = 2'000.0;
            points.push_back(tinyPoint(
                "irq/N=" + std::to_string(n) + "/lat=" +
                    std::to_string(latency),
                config, 2'400'000, 1'000'000));
        }
    }
    return points;
}

/** Distinct non-empty placement keys among `points`. */
std::size_t
placementClasses(const std::vector<SweepPoint> &points)
{
    std::set<std::string> keys;
    for (const SweepPoint &point : points) {
        std::string key = sweepPlacementKey(point.config);
        if (!key.empty())
            keys.insert(std::move(key));
    }
    return keys.size();
}

/**
 * Sweep `points` at --jobs 1 and 4 and check every result, bit for
 * bit, against the same point swept on its own. Returns the number of
 * sub-jobs that read a stall tape, which must not depend on the job
 * count: a sibling is claimed only once its prober has finished, so
 * each of them reads one.
 */
std::uint64_t
expectSharedSweepEqualsPointsAlone(const std::vector<SweepPoint> &points)
{
    const std::uint64_t start = StallTape::replays();
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
        SweepPointResult alone =
            ParallelSweepRunner({1}).run({points[i]}).front();
        alone.index = i;
        EXPECT_TRUE(alone.ok) << alone.error;
        expected.push_back(sweepPointResultsJson(alone) + " normalized " +
                           std::to_string(std::bit_cast<std::uint64_t>(
                               alone.normalized)));
    }
    // A point swept alone shares its stalls with no one.
    EXPECT_EQ(StallTape::replays(), start);

    std::uint64_t replays = 0;
    for (unsigned jobs : {1u, 4u}) {
        const std::uint64_t before = StallTape::replays();
        const std::vector<SweepPointResult> shared =
            ParallelSweepRunner({jobs}).run(points);
        if (jobs == 1)
            replays = StallTape::replays() - before;
        else
            EXPECT_EQ(StallTape::replays() - before, replays)
                << "stall replays at --jobs " << jobs;
        EXPECT_EQ(StallTape::live(), 0u);
        EXPECT_EQ(StreamTape::live(), 0u);
        EXPECT_EQ(ParallelSweepRunner::cachedWarmSnapshots(), 0u);
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_TRUE(shared[i].ok) << shared[i].error;
            EXPECT_EQ(sweepPointResultsJson(shared[i]) + " normalized " +
                          std::to_string(std::bit_cast<std::uint64_t>(
                              shared[i].normalized)),
                      expected[i])
                << points[i].label << " at --jobs " << jobs;
        }
    }
    return replays;
}

/**
 * One prober per placement class: every point with a placement key
 * reads a stall tape, except the first point of each class.
 */
void
expectOneProberPerClass(const std::vector<SweepPoint> &points,
                        std::uint64_t replays)
{
    std::size_t keyed = 0;
    for (const SweepPoint &point : points)
        keyed += sweepPlacementKey(point.config).empty() ? 0 : 1;
    EXPECT_EQ(replays, keyed - placementClasses(points));
}

TEST(SweepStallTapes, Figure4GridSeed42)
{
    const std::vector<SweepPoint> points = figure4Grid(42);
    EXPECT_EQ(placementClasses(points), 36u);
    const std::uint64_t replays = expectSharedSweepEqualsPointsAlone(points);
    // 180 points, 36 of which probe: each latency sibling replays.
    EXPECT_EQ(replays, 144u);
    expectOneProberPerClass(points, replays);
}

TEST(SweepStallTapes, Figure4GridSeed7)
{
    const std::vector<SweepPoint> points = figure4Grid(7);
    EXPECT_EQ(expectSharedSweepEqualsPointsAlone(points), 144u);
}

TEST(SweepStallTapes, Figure5AndTable3GridsSeed42)
{
    const std::vector<SweepPoint> points = figure5AndTable3Grid(42);
    const std::uint64_t replays = expectSharedSweepEqualsPointsAlone(points);
    // Only the aside's five latencies share a class; SI and dynamic-N
    // points, and Table III's distinct thresholds, probe.
    EXPECT_EQ(replays, 4u);
    expectOneProberPerClass(points, replays);
}

TEST(SweepStallTapes, Figure5AndTable3GridsSeed7)
{
    EXPECT_EQ(expectSharedSweepEqualsPointsAlone(figure5AndTable3Grid(7)),
              4u);
}

TEST(SweepStallTapes, LeastLoadedTwoOsCoreGroup)
{
    const std::vector<SweepPoint> points = topologyGroup();
    const std::uint64_t replays = expectSharedSweepEqualsPointsAlone(points);
    EXPECT_EQ(replays, 4u);
    expectOneProberPerClass(points, replays);
}

TEST(SweepStallTapes, HeavyInterruptGroup)
{
    const std::vector<SweepPoint> points = heavyInterruptGroup();
    const std::uint64_t replays = expectSharedSweepEqualsPointsAlone(points);
    EXPECT_EQ(replays, 4u);
    expectOneProberPerClass(points, replays);
}

TEST(SweepPlacementKey, EmptyForSiDynamicAndServing)
{
    const SystemConfig hi =
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000, 100);
    EXPECT_FALSE(sweepPlacementKey(hi).empty());
    EXPECT_FALSE(sweepPlacementKey(
                     ExperimentRunner::baselineConfig(WorkloadKind::Apache))
                     .empty());

    const auto profile = std::make_shared<const ServiceProfile>();
    EXPECT_EQ(sweepPlacementKey(ExperimentRunner::staticInstrConfig(
                  WorkloadKind::Apache, 100, profile)),
              "");
    EXPECT_EQ(sweepPlacementKey(ExperimentRunner::dynamicInstrConfig(
                  WorkloadKind::Apache, 100, 100)),
              "");
    EXPECT_EQ(sweepPlacementKey(ExperimentRunner::hardwareDynamicConfig(
                  WorkloadKind::Apache, 100)),
              "");
    SystemConfig serving = hi;
    serving.serving = std::make_shared<ServingConfig>();
    EXPECT_EQ(sweepPlacementKey(serving), "");
    SystemConfig dual = hi;
    dual.userCores = 2;
    EXPECT_EQ(sweepPlacementKey(dual), "");
}

TEST(SweepPlacementKey, IgnoresOnlyMigrationLatency)
{
    const SystemConfig base =
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000, 100);
    const std::string key = sweepPlacementKey(base);

    SystemConfig latency = base;
    latency.migrationOneWayCycles = 5000;
    EXPECT_EQ(sweepPlacementKey(latency), key);

    using Edit = void (*)(SystemConfig &);
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"workload",
         [](SystemConfig &c) { c.workload = WorkloadKind::Derby; }},
        {"seed", [](SystemConfig &c) { c.seed = 7; }},
        {"warmup", [](SystemConfig &c) { c.warmupInstructions = 1; }},
        {"measure", [](SystemConfig &c) { c.measureInstructions = 1; }},
        {"policy",
         [](SystemConfig &c) {
             c.policy = PolicyKind::DynamicInstrumentation;
         }},
        {"predictor",
         [](SystemConfig &c) { c.predictor = PredictorKind::DirectMapped; }},
        {"threshold", [](SystemConfig &c) { c.staticThreshold = 100; }},
        {"feedback",
         [](SystemConfig &c) {
             c.thresholdFeedback =
                 SystemConfig::ThresholdFeedback::L2HitRate;
         }},
        {"ladder",
         [](SystemConfig &c) { c.thresholdConfig.ladder.pop_back(); }},
        {"epoch scale",
         [](SystemConfig &c) { c.thresholdConfig.epochScale = 1.0; }},
        {"hi cost", [](SystemConfig &c) { c.hiDecisionCost = 2; }},
        {"di cost", [](SystemConfig &c) { c.diDecisionCost = 2; }},
        {"si cost", [](SystemConfig &c) { c.siDecisionCost = 2; }},
        {"os cores", [](SystemConfig &c) { c.topology.osCores = 2; }},
        {"hop", [](SystemConfig &c) { c.topology.intraNodeHopCycles = 9; }},
        {"l2", [](SystemConfig &c) { c.geometry.l2.sizeBytes /= 2; }},
        {"memory", [](SystemConfig &c) { c.timings.memory += 1; }},
        {"interrupts",
         [](SystemConfig &c) { c.interrupts.meanInterarrivalCycles = 1e3; }},
        {"coupling", [](SystemConfig &c) { c.osCouplingScale = 2.0; }},
        {"offload", [](SystemConfig &c) { c.offloadEnabled = false; }},
    };
    for (const auto &[what, edit] : edits) {
        SystemConfig changed = base;
        edit(changed);
        EXPECT_NE(sweepPlacementKey(changed), key) << what;
    }
}

/** A warm snapshot of `config`'s fork group at measurement start. */
std::unique_ptr<System>
warmSnapshot(const SystemConfig &config)
{
    auto warm = std::make_unique<System>(sweepWarmerConfig(config));
    warm->runToMeasurementStart();
    return warm;
}

SystemConfig
jbbConfig(InstCount n, Cycle latency)
{
    return tinyPoint("", ExperimentRunner::hardwareConfig(
                             WorkloadKind::SpecJbb, n, latency),
                     2'400'000, 1'000'000)
        .config;
}

/** The group's stream tape and the stall record of `prober`. */
struct Records
{
    std::shared_ptr<StreamTape> stream;
    std::shared_ptr<StallTape> stall;
};

Records
recordTapes(const System &warm, const SystemConfig &prober)
{
    Records records{std::make_shared<StreamTape>(prober),
                    std::make_shared<StallTape>()};
    const std::unique_ptr<System> forked = warm.clone();
    forked->reconfigureForMeasurement(prober);
    forked->attachTapes({TapeUse::Record, records.stream, TapeUse::Record,
                         records.stall});
    forked->resumeRun();
    return records;
}

/** A fork of `warm` at `config`, replaying both records. */
std::unique_ptr<System>
stallReplay(const System &warm, const SystemConfig &config,
            const Records &records)
{
    std::unique_ptr<System> forked = warm.clone();
    forked->reconfigureForMeasurement(config);
    forked->attachTapes({TapeUse::Replay, records.stream, TapeUse::Replay,
                         records.stall});
    return forked;
}

TEST(SweepStallTapeDeathTest, RecordOfAnotherThresholdPanics)
{
    const SystemConfig n100 = jbbConfig(100, 100);
    const std::unique_ptr<System> warm = warmSnapshot(n100);
    const Records records = recordTapes(*warm, n100);
    ASSERT_TRUE(records.stall->finished());
    ASSERT_GT(records.stall->segmentCount(), 0u);

    // The same class at another latency reads the record to its end.
    const std::unique_ptr<System> sibling =
        stallReplay(*warm, jbbConfig(100, 5000), records);
    sibling->resumeRun();

    // N=1000 inlines a call N=100 off-loaded: the first such segment
    // runs on the user core, not the OS core the record names.
    EXPECT_DEATH(stallReplay(*warm, jbbConfig(1000, 100), records)
                     ->resumeRun(),
                 "stall tape of point 'specjbb2005/HI/N=1000/lat=100/seed=42' "
                 "diverges at segment [0-9]+: recorded core 1, os");
}

TEST(SweepStallTapeGuards, ReplayNeedsAStreamReplayAndAStaticPoint)
{
    const SystemConfig config = jbbConfig(100, 100);
    const std::unique_ptr<System> warm = warmSnapshot(config);
    const Records records = recordTapes(*warm, config);
    ScopedFatalThrows fatal_throws;

    const std::unique_ptr<System> live = warm->clone();
    live->reconfigureForMeasurement(config);
    EXPECT_THROW(live->attachTapes({TapeUse::None, nullptr, TapeUse::Replay,
                                    records.stall}),
                 FatalError);

    SystemConfig dynamic = config;
    dynamic.dynamicThreshold = true;
    const std::unique_ptr<System> steered = warm->clone();
    steered->reconfigureForMeasurement(dynamic);
    EXPECT_THROW(steered->attachTapes({TapeUse::Replay, records.stream,
                                       TapeUse::Replay, records.stall}),
                 FatalError);

    const std::unique_ptr<System> unsealed = warm->clone();
    unsealed->reconfigureForMeasurement(config);
    EXPECT_THROW(unsealed->attachTapes({TapeUse::Replay, records.stream,
                                        TapeUse::Replay,
                                        std::make_shared<StallTape>()}),
                 FatalError);
}

TEST(SweepStallTapeGuards, StallReplayCannotBeCloned)
{
    const SystemConfig config = jbbConfig(100, 100);
    const std::unique_ptr<System> warm = warmSnapshot(config);
    const Records records = recordTapes(*warm, config);
    const std::unique_ptr<System> replay =
        stallReplay(*warm, jbbConfig(100, 0), records);
    ScopedFatalThrows fatal_throws;
    EXPECT_THROW(replay->clone(), FatalError);
}

} // namespace
} // namespace oscar
