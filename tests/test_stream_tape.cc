/**
 * @file
 * Stream tapes: a forked single-thread point that replays its fork
 * group's recorded stream must be byte-identical to the same point
 * run live, over the Figure 4 / Figure 5 / Table III grids (SI, DI,
 * HI; static and dynamic N; 0, 100 and 5000-cycle migration; the
 * 512 KB-L2 aside; interrupts on; seeds 42 and 7) at the benchmark's
 * tiny horizons. The guards — multi-thread and serving systems,
 * cloning a tape-fed system, reading past the tape, a tape from
 * another fork group — must fail cleanly.
 */

#include <gtest/gtest.h>

#include <memory>
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

/** The benchmark's --tiny horizons: one twentieth of the paper's. */
SystemConfig
tiny(SystemConfig config, InstCount measure, InstCount warmup)
{
    config.measureInstructions = measure / 20;
    config.warmupInstructions = warmup / 20;
    return config;
}

/** The Figure 4, Figure 5, aside and Table III points of one seed. */
std::vector<SystemConfig>
paperGrid(std::uint64_t seed)
{
    std::vector<SystemConfig> grid;
    const std::vector<WorkloadKind> servers = {
        WorkloadKind::Apache, WorkloadKind::SpecJbb, WorkloadKind::Derby};
    for (WorkloadKind kind : servers) {
        for (Cycle latency : {Cycle(0), Cycle(100), Cycle(5000)}) {
            for (InstCount n : {InstCount(0), InstCount(1000)}) {
                grid.push_back(tiny(ExperimentRunner::hardwareConfig(
                                        kind, n, latency, seed),
                                    2'400'000, 1'000'000));
            }
        }
    }
    for (WorkloadKind kind : {WorkloadKind::Apache, WorkloadKind::Mcf}) {
        const auto profile = ExperimentRunner::profileServices(kind, seed);
        for (Cycle latency : {Cycle(100), Cycle(5000)}) {
            grid.push_back(tiny(ExperimentRunner::staticInstrConfig(
                                    kind, latency, profile, seed),
                                3'000'000, 1'200'000));
            grid.push_back(tiny(ExperimentRunner::dynamicInstrConfig(
                                    kind, latency, 100, seed),
                                3'000'000, 1'200'000));
            grid.push_back(tiny(ExperimentRunner::hardwareDynamicConfig(
                                    kind, latency, seed),
                                3'000'000, 1'200'000));
        }
    }
    for (Cycle latency : {Cycle(100), Cycle(5000)}) {
        SystemConfig aside =
            ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100,
                                             latency, seed);
        aside.geometry.l2.sizeBytes = 512 * 1024;
        grid.push_back(tiny(aside, 3'000'000, 1'200'000));
    }
    for (WorkloadKind kind : servers) {
        for (InstCount n : {InstCount(100), InstCount(5000)}) {
            grid.push_back(tiny(ExperimentRunner::hardwareConfig(
                                    kind, n, 5000, seed),
                                3'000'000, 1'000'000));
        }
    }
    return grid;
}

/** A warm snapshot of `config`'s fork group at measurement start. */
std::unique_ptr<System>
warmSnapshot(const SystemConfig &config)
{
    auto warm = std::make_unique<System>(sweepWarmerConfig(config));
    warm->runToMeasurementStart();
    return warm;
}

/** What the differential compares of one measured region. */
struct Outcome
{
    std::string json;
    std::vector<CycleBreakdown> cycles;
};

/**
 * Fork `config` from `warm` and run its measured region, recording
 * into or replaying from `tape` per `use` (0 live, 1 record, 2 replay).
 */
Outcome
runForked(const System &warm, const SystemConfig &config, int use,
          const std::shared_ptr<StreamTape> &tape)
{
    const std::unique_ptr<System> forked = warm.clone();
    forked->reconfigureForMeasurement(config);
    if (use == 1)
        forked->recordStreamTape(tape);
    else if (use == 2)
        forked->replayStreamTape(tape);
    SweepPointResult point;
    point.config = config;
    point.ok = true;
    point.results = forked->resumeRun();
    Outcome outcome;
    outcome.json = sweepPointResultsJson(point);
    for (CoreId c = 0; c < config.totalCores(); ++c)
        outcome.cycles.push_back(forked->measuredCycles(c));
    return outcome;
}

void
expectSameOutcome(const Outcome &live, const Outcome &other,
                  const std::string &what)
{
    EXPECT_EQ(live.json, other.json) << what;
    ASSERT_EQ(live.cycles.size(), other.cycles.size()) << what;
    for (std::size_t c = 0; c < live.cycles.size(); ++c) {
        EXPECT_EQ(live.cycles[c].user, other.cycles[c].user) << what;
        EXPECT_EQ(live.cycles[c].os, other.cycles[c].os) << what;
        EXPECT_EQ(live.cycles[c].decision, other.cycles[c].decision)
            << what;
        EXPECT_EQ(live.cycles[c].migration, other.cycles[c].migration)
            << what;
        EXPECT_EQ(live.cycles[c].queueWait, other.cycles[c].queueWait)
            << what;
    }
}

/**
 * Group the grid by fork group, record each group's tape from its
 * longest-horizon point, and check every point's replay (and the
 * recording run itself) against its live run.
 */
void
expectReplayMatchesLive(std::uint64_t seed)
{
    const std::vector<SystemConfig> grid = paperGrid(seed);
    std::vector<bool> done(grid.size(), false);
    std::size_t groups = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (done[i])
            continue;
        const std::string key = sweepWarmupKey(grid[i]);
        std::vector<std::size_t> members;
        std::size_t longest = i;
        for (std::size_t j = i; j < grid.size(); ++j) {
            if (sweepWarmupKey(grid[j]) != key)
                continue;
            members.push_back(j);
            done[j] = true;
            if (grid[j].measureInstructions >
                grid[longest].measureInstructions)
                longest = j;
        }
        ++groups;

        const std::unique_ptr<System> warm = warmSnapshot(grid[i]);
        auto tape = std::make_shared<StreamTape>(grid[i]);
        const Outcome recorded =
            runForked(*warm, grid[longest], 1, tape);
        ASSERT_TRUE(tape->finished());
        EXPECT_GT(tape->refCount(), 0u);
        expectSameOutcome(runForked(*warm, grid[longest], 0, nullptr),
                          recorded, "recording: " + key);
        for (std::size_t j : members) {
            const std::string what = "point " + std::to_string(j) +
                                     " seed " + std::to_string(seed);
            expectSameOutcome(runForked(*warm, grid[j], 0, nullptr),
                              runForked(*warm, grid[j], 2, tape), what);
        }
    }
    // Servers share a group across Figure 4 and Table III; the
    // Figure 5 horizons, Mcf and the aside add groups of their own.
    EXPECT_GE(groups, 5u);
}

TEST(StreamTape, ReplayMatchesLiveOnPaperGridsSeed42)
{
    expectReplayMatchesLive(42);
}

TEST(StreamTape, ReplayMatchesLiveOnPaperGridsSeed7)
{
    expectReplayMatchesLive(7);
}

TEST(StreamTape, ReplayMatchesLiveUnderHeavyInterrupts)
{
    // Frequent interrupts extend most interruptible sequences, so the
    // tape's extended lengths differ from the tokens' true lengths.
    SystemConfig config = tiny(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 100, 500),
        2'400'000, 1'000'000);
    config.interrupts.meanInterarrivalCycles = 2'000.0;
    const std::unique_ptr<System> warm = warmSnapshot(config);
    auto tape = std::make_shared<StreamTape>(config);
    runForked(*warm, config, 1, tape);
    expectSameOutcome(runForked(*warm, config, 0, nullptr),
                      runForked(*warm, config, 2, tape), "irq");
}

/** A finished tape of `config`'s measured region. */
std::shared_ptr<StreamTape>
recordTape(const System &warm, const SystemConfig &config)
{
    auto tape = std::make_shared<StreamTape>(config);
    runForked(warm, config, 1, tape);
    return tape;
}

SystemConfig
guardConfig(std::uint64_t seed = 42)
{
    return tiny(ExperimentRunner::hardwareConfig(WorkloadKind::SpecJbb,
                                                 1000, 100, seed),
                2'400'000, 1'000'000);
}

TEST(StreamTapeGuards, MultiThreadSystemRejectsTape)
{
    SystemConfig config = guardConfig();
    config.userCores = 2;
    const std::unique_ptr<System> warm = warmSnapshot(config);
    auto tape = std::make_shared<StreamTape>(config);
    const std::unique_ptr<System> forked = warm->clone();
    forked->reconfigureForMeasurement(config);
    ScopedFatalThrows fatal_throws;
    EXPECT_THROW(forked->recordStreamTape(tape), FatalError);
    tape->finish();
    EXPECT_THROW(forked->replayStreamTape(tape), FatalError);
}

TEST(StreamTapeGuards, ServingSystemRejectsTape)
{
    SystemConfig config = guardConfig();
    auto serving = std::make_shared<ServingConfig>();
    serving->meanInterarrivalCycles = 20'000.0;
    serving->warmupRequests = 10;
    serving->measureRequests = 20;
    config.serving = std::move(serving);
    const std::unique_ptr<System> warm = warmSnapshot(config);
    auto tape = std::make_shared<StreamTape>(config);
    tape->finish();
    const std::unique_ptr<System> forked = warm->clone();
    ScopedFatalThrows fatal_throws;
    EXPECT_THROW(forked->replayStreamTape(tape), FatalError);
}

TEST(StreamTapeGuards, TapeFedSystemCannotBeCloned)
{
    const SystemConfig config = guardConfig();
    const std::unique_ptr<System> warm = warmSnapshot(config);
    const std::shared_ptr<StreamTape> tape = recordTape(*warm, config);
    const std::unique_ptr<System> forked = warm->clone();
    forked->reconfigureForMeasurement(config);
    forked->replayStreamTape(tape);
    ScopedFatalThrows fatal_throws;
    EXPECT_THROW(forked->clone(), FatalError);
}

TEST(StreamTapeGuards, ReadingPastTheEndIsFatal)
{
    const SystemConfig config = guardConfig();
    const std::unique_ptr<System> warm = warmSnapshot(config);
    const std::shared_ptr<StreamTape> tape = recordTape(*warm, config);
    SystemConfig longer = config;
    longer.measureInstructions *= 2;
    const std::unique_ptr<System> forked = warm->clone();
    forked->reconfigureForMeasurement(longer);
    forked->replayStreamTape(tape);
    ScopedFatalThrows fatal_throws;
    try {
        forked->resumeRun();
        ADD_FAILURE() << "replay ran past the tape's end";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("exhausted"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StreamTapeGuards, TapeOfAnotherForkGroupIsRejected)
{
    const SystemConfig config = guardConfig(42);
    const std::unique_ptr<System> warm = warmSnapshot(config);
    const std::shared_ptr<StreamTape> tape = recordTape(*warm, config);

    const SystemConfig other = guardConfig(7);
    const std::unique_ptr<System> other_warm = warmSnapshot(other);
    const std::unique_ptr<System> forked = other_warm->clone();
    forked->reconfigureForMeasurement(other);
    ScopedFatalThrows fatal_throws;
    EXPECT_THROW(forked->replayStreamTape(tape), FatalError);
}

TEST(StreamTapeGuards, AttachOnlyAtMeasurementStart)
{
    const SystemConfig config = guardConfig();
    auto tape = std::make_shared<StreamTape>(config);
    System cold(config);
    ScopedFatalThrows fatal_throws;
    EXPECT_THROW(cold.recordStreamTape(tape), FatalError);
}

} // namespace
} // namespace oscar
