/**
 * @file
 * Seeded config fuzz with the probe attached.
 *
 * Each draw mutates one to three fields of a small segment-mode or
 * serving configuration, across SystemConfig (thresholds, costs,
 * controller knobs, horizons), TopologyConfig and ServingConfig, with
 * zeros, maxima and non-finite values among the choices. A draw must
 * either be rejected with a FatalError under ScopedFatalThrows or run
 * with a MemoryTraceSink (and, when serving, a SpanRecorder) attached
 * and keep the probe's invariants:
 *   - the span phase sums add up to the span total, and the total is
 *     the run's request latency (sum and count);
 *   - every invocation `begin` on a thread is closed by its `end`
 *     before the next begins, and a thread leaves at most one open;
 *   - the sink counted as many emissions as it recorded events.
 * A config-reachable panic aborts the test binary; each one found
 * here is a named fatal with its own ScopedFatalThrows case.
 *
 * The choices are bounded where a maximum would only allocate or
 * spin: tenant counts, client fleets, horizons and segment counts
 * stay small, and cycle-cost maxima go to segment-mode draws only, so
 * every draw runs in milliseconds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/trace.hh"
#include "system/experiment.hh"

namespace oscar
{
namespace
{

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Cycle kMaxCycle = std::numeric_limits<Cycle>::max();
constexpr InstCount kMaxInst = std::numeric_limits<InstCount>::max();

/** Small segment-mode point: HI off-loading on two user cores. */
SystemConfig
segmentBase()
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/100, /*migration_one_way=*/100);
    config.userCores = 2;
    config.warmupInstructions = 2'000;
    config.measureInstructions = 8'000;
    config.thresholdConfig.epochScale = 0.0001;
    return config;
}

/** Small serving point on a two-node work-stealing fabric. */
SystemConfig
servingBase()
{
    SystemConfig config = segmentBase();
    config.userCores = 4;
    config.topology.osCores = 2;
    config.topology.numaNodes = 2;
    config.topology.placement = OsPlacement::Spread;
    config.topology.dispatch = OsDispatchPolicy::WorkStealing;
    config.topology.spillDepth = 1;
    config.topology.intraNodeHopCycles = 20;
    config.topology.interNodeHopCycles = 400;
    auto serving = std::make_shared<ServingConfig>();
    serving->meanInterarrivalCycles = 8'000.0;
    serving->tenants = 8;
    serving->meanSegments = 2.0;
    serving->warmupRequests = 3;
    serving->measureRequests = 12;
    config.serving = std::move(serving);
    return config;
}

/**
 * Which draws a mutation applies to. Cycle costs are segment-only: an
 * open-loop serving point whose service takes 10^9 cycles per hop
 * queues an arrival every few thousand cycles meanwhile, and its run
 * grows with that ratio.
 */
enum class Draws : std::uint8_t
{
    Both,
    Segment,
    Serving,
};

/** One mutable field and the values a draw may set it to. */
struct Mutation
{
    const char *field;
    /** Number of choices. */
    std::size_t choices;
    /** Apply choice `i`. `serving` is null on a segment-mode draw. */
    std::function<void(SystemConfig &, ServingConfig *, std::size_t)> set;
    Draws draws = Draws::Both;
};

template <typename T>
Mutation
systemField(const char *field, T SystemConfig::*member, std::vector<T> values,
            Draws draws = Draws::Both)
{
    return {field, values.size(),
            [member, values](SystemConfig &c, ServingConfig *,
                             std::size_t i) { c.*member = values[i]; },
            draws};
}

template <typename T>
Mutation
topologyField(const char *field, T TopologyConfig::*member,
              std::vector<T> values, Draws draws = Draws::Both)
{
    return {field, values.size(),
            [member, values](SystemConfig &c, ServingConfig *,
                             std::size_t i) {
                c.topology.*member = values[i];
            },
            draws};
}

template <typename T>
Mutation
servingField(const char *field, T ServingConfig::*member,
             std::vector<T> values)
{
    return {field, values.size(),
            [member, values](SystemConfig &, ServingConfig *s,
                             std::size_t i) { s->*member = values[i]; },
            Draws::Serving};
}

template <typename T>
Mutation
controllerField(const char *field, T ThresholdConfig::*member,
                std::vector<T> values)
{
    return {field, values.size(),
            [member, values](SystemConfig &c, ServingConfig *,
                             std::size_t i) {
                c.thresholdConfig.*member = values[i];
            }};
}

const std::vector<Mutation> &
mutations()
{
    static const std::vector<Mutation> table = {
        systemField<unsigned>("userCores", &SystemConfig::userCores,
                              {0, 1, 3, 8, 64, 65}),
        systemField<bool>("offloadEnabled", &SystemConfig::offloadEnabled,
                          {false, true}),
        systemField<PolicyKind>(
            "policy", &SystemConfig::policy,
            {PolicyKind::Baseline, PolicyKind::StaticInstrumentation,
             PolicyKind::DynamicInstrumentation,
             PolicyKind::HardwarePredictor}),
        systemField<PredictorKind>(
            "predictor", &SystemConfig::predictor,
            {PredictorKind::Cam, PredictorKind::DirectMapped,
             PredictorKind::Infinite}),
        systemField<bool>("dynamicThreshold",
                          &SystemConfig::dynamicThreshold, {false, true}),
        systemField<SystemConfig::ThresholdFeedback>(
            "thresholdFeedback", &SystemConfig::thresholdFeedback,
            {SystemConfig::ThresholdFeedback::L2HitRate,
             SystemConfig::ThresholdFeedback::WindowIpc}),
        systemField<InstCount>("staticThreshold",
                               &SystemConfig::staticThreshold,
                               {0, 1, 50'000, kMaxInst}),
        systemField<Cycle>("migrationOneWayCycles",
                           &SystemConfig::migrationOneWayCycles,
                           {0, 1, kMaxMigrationCycles,
                            kMaxMigrationCycles + 1, kMaxCycle},
                           Draws::Segment),
        systemField<Cycle>("diDecisionCost", &SystemConfig::diDecisionCost,
                           {0, 1'000'000, kMaxCycle}, Draws::Segment),
        systemField<Cycle>("hiDecisionCost", &SystemConfig::hiDecisionCost,
                           {0, 1'000'000, kMaxCycle}, Draws::Segment),
        {"geometry.l1d", 5,
         [](SystemConfig &c, ServingConfig *, std::size_t i) {
             const CacheGeometry values[] = {{0, 2, 64, 1},
                                             {100, 2, 64, 1},
                                             {32 * 1024, 0, 64, 1},
                                             {32 * 1024, 3, 64, 1},
                                             {32 * 1024, 2, 64, kMaxCycle}};
             c.geometry.l1d = values[i];
         },
         Draws::Segment},
        {"geometry.lineBytes", 4,
         [](SystemConfig &c, ServingConfig *, std::size_t i) {
             const unsigned values[] = {0, 1, 48, 4096};
             c.geometry.l1i.lineBytes = values[i];
             c.geometry.l1d.lineBytes = values[i];
             c.geometry.l2.lineBytes = values[i];
         }},
        {"timings", 4,
         [](SystemConfig &c, ServingConfig *, std::size_t i) {
             const Cycle values[] = {0, 1'000'000, kMaxMigrationCycles,
                                     kMaxCycle};
             c.timings.memory = values[i];
             c.timings.l2Hit = values[i];
             c.timings.cacheToCache = values[i];
         },
         Draws::Segment},
        systemField<double>("osCouplingScale",
                            &SystemConfig::osCouplingScale,
                            {0.0, 8.0, -1.0, kNan, kInf}),
        {"interrupts.meanInterarrivalCycles", 5,
         [](SystemConfig &c, ServingConfig *, std::size_t i) {
             const double values[] = {0.0, 50.0, 1e12, kNan, kInf};
             c.interrupts.meanInterarrivalCycles = values[i];
         }},
        systemField<InstCount>("warmupInstructions",
                               &SystemConfig::warmupInstructions, {0, 1}),
        systemField<InstCount>("measureInstructions",
                               &SystemConfig::measureInstructions, {0, 1}),
        systemField<std::uint64_t>("seed", &SystemConfig::seed,
                                   {0, 7, ~std::uint64_t{0}}),
        controllerField<double>("thresholdConfig.epochScale",
                                &ThresholdConfig::epochScale,
                                {1e-12, 1.0, 0.0, kNan, kInf}),
        controllerField<std::vector<InstCount>>(
            "thresholdConfig.ladder", &ThresholdConfig::ladder,
            {{}, {0}, {kMaxInst}, {5000, 100}}),
        controllerField<InstCount>("thresholdConfig.initialHighPriv",
                                   &ThresholdConfig::initialHighPriv,
                                   {0, 7, kMaxInst}),
        controllerField<InstCount>("thresholdConfig.sampleEpoch",
                                   &ThresholdConfig::sampleEpoch,
                                   {0, 1, kMaxInst}),
        topologyField<unsigned>("topology.osCores", &TopologyConfig::osCores,
                                {0, 1, 3, 64}),
        topologyField<unsigned>("topology.numaNodes",
                                &TopologyConfig::numaNodes, {0, 1, 3, 65}),
        topologyField<OsPlacement>("topology.placement",
                                   &TopologyConfig::placement,
                                   {OsPlacement::Packed, OsPlacement::Spread}),
        topologyField<OsDispatchPolicy>(
            "topology.dispatch", &TopologyConfig::dispatch,
            {OsDispatchPolicy::HomeNode, OsDispatchPolicy::LeastLoaded,
             OsDispatchPolicy::WorkStealing}),
        topologyField<Cycle>("topology.intraNodeHopCycles",
                             &TopologyConfig::intraNodeHopCycles,
                             {0, kMaxMigrationCycles, kMaxCycle},
                             Draws::Segment),
        topologyField<Cycle>("topology.interNodeHopCycles",
                             &TopologyConfig::interNodeHopCycles,
                             {0, kMaxMigrationCycles, kMaxCycle},
                             Draws::Segment),
        topologyField<std::size_t>(
            "topology.spillDepth", &TopologyConfig::spillDepth,
            {0, 1, std::numeric_limits<std::size_t>::max()}),
        servingField<ArrivalModel>(
            "serving.arrival", &ServingConfig::arrival,
            {ArrivalModel::OpenLoop, ArrivalModel::ClosedLoop}),
        servingField<DispatchPolicy>(
            "serving.dispatch", &ServingConfig::dispatch,
            {DispatchPolicy::RoundRobin, DispatchPolicy::TenantAffinity,
             DispatchPolicy::NodeAffinity}),
        servingField<double>("serving.meanInterarrivalCycles",
                             &ServingConfig::meanInterarrivalCycles,
                             {0.0, 1.0, 1e12, kNan, kInf}),
        servingField<double>("serving.diurnalAmplitude",
                             &ServingConfig::diurnalAmplitude,
                             {0.0, 0.99, 1.0, kNan}),
        servingField<Cycle>("serving.diurnalPeriodCycles",
                            &ServingConfig::diurnalPeriodCycles,
                            {0, 1, kMaxCycle}),
        servingField<double>("serving.burstProbability",
                             &ServingConfig::burstProbability,
                             {0.0, 1.0, 1.5, kNan}),
        servingField<double>("serving.burstRateMultiplier",
                             &ServingConfig::burstRateMultiplier,
                             {1.0, 64.0, 0.0, kInf}),
        servingField<double>("serving.burstMeanRequests",
                             &ServingConfig::burstMeanRequests,
                             {1.0, 1000.0, 0.0, kNan}),
        servingField<unsigned>("serving.clientsPerCore",
                               &ServingConfig::clientsPerCore, {0, 1, 16}),
        servingField<double>("serving.meanThinkCycles",
                             &ServingConfig::meanThinkCycles,
                             {0.0, 1e12, -1.0, kInf}),
        servingField<unsigned>("serving.tenants", &ServingConfig::tenants,
                               {0, 1, 1000}),
        servingField<double>("serving.tenantSkew",
                             &ServingConfig::tenantSkew,
                             {0.0, 1.0, 50.0, kNan, kInf}),
        servingField<double>("serving.meanSegments",
                             &ServingConfig::meanSegments,
                             {0.0, 1.0, 8.0, kInf}),
        servingField<double>("serving.segmentsSigma",
                             &ServingConfig::segmentsSigma,
                             {0.0, 3.0, -1.0, kNan}),
        servingField<std::uint64_t>("serving.warmupRequests",
                                    &ServingConfig::warmupRequests, {0, 1}),
        servingField<std::uint64_t>("serving.measureRequests",
                                    &ServingConfig::measureRequests,
                                    {0, 1}),
    };
    return table;
}

/** Checks every invariant of one completed run; returns a failure. */
std::string
brokenInvariant(const SimResults &r, const MemoryTraceSink &sink,
                const SpanRecorder *spans)
{
    if (sink.emitted() != sink.events().size())
        return "emitted() differs from the recorded event count";
    std::map<std::uint32_t, int> open;
    for (const TraceEvent &e : sink.events()) {
        if (e.kind == TraceEventKind::InvocationBegin &&
            ++open[e.thread] > 1) {
            return "thread " + std::to_string(e.thread) +
                   " began an invocation before ending its last";
        }
        if (e.kind == TraceEventKind::InvocationEnd &&
            --open[e.thread] < 0) {
            return "thread " + std::to_string(e.thread) +
                   " ended an invocation it never began";
        }
    }
    if (spans == nullptr)
        return "";
    const SpanResults &s = spans->results();
    std::uint64_t phase_sum = 0;
    for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
        if (s.phase[p].count() != s.spansRecorded)
            return std::string("phase ") +
                   spanPhaseName(static_cast<SpanPhase>(p)) +
                   " misses spans";
        phase_sum += s.phase[p].sum();
    }
    if (phase_sum != s.total.sum())
        return "span phase sums do not add up to the span total";
    if (s.total.sum() != r.requestLatency.sum() ||
        s.total.count() != r.requestLatency.count()) {
        return "span total differs from the request latency";
    }
    return "";
}

TEST(ConfigFuzz, MutatedConfigsFatalOrKeepInvariants)
{
    constexpr int kDraws = 240;
    std::mt19937_64 rng(20261020);
    const std::vector<Mutation> &table = mutations();
    int fatals = 0;
    int runs = 0;
    for (int draw = 0; draw < kDraws; ++draw) {
        const bool serving = draw % 2 == 1;
        SystemConfig config = serving ? servingBase() : segmentBase();
        std::shared_ptr<ServingConfig> serving_cfg;
        if (serving) {
            serving_cfg = std::make_shared<ServingConfig>(*config.serving);
            config.serving = serving_cfg;
        }
        std::string applied;
        const std::size_t count = 1 + rng() % 3;
        for (std::size_t m = 0; m < count;) {
            const Mutation &mutation = table[rng() % table.size()];
            if (mutation.draws ==
                (serving ? Draws::Segment : Draws::Serving)) {
                continue;
            }
            const std::size_t choice = rng() % mutation.choices;
            mutation.set(config, serving_cfg.get(), choice);
            applied += std::string(" ") + mutation.field + "#" +
                       std::to_string(choice);
            ++m;
        }
        SCOPED_TRACE("draw " + std::to_string(draw) +
                     (serving ? " serving:" : " segment:") + applied);

        MemoryTraceSink sink;
        SpanRecorder recorder;
        SimResults results;
        try {
            ScopedFatalThrows guard;
            results = ExperimentRunner::run(config, &sink, nullptr,
                                            serving ? &recorder : nullptr);
        } catch (const FatalError &) {
            ++fatals;
            continue;
        }
        ++runs;
        EXPECT_EQ(brokenInvariant(results, sink,
                                  serving ? &recorder : nullptr),
                  "");
    }
    // Both outcomes occur, so the draw mix tests both sides.
    EXPECT_GT(fatals, kDraws / 10);
    EXPECT_GT(runs, kDraws / 4);
}

} // namespace
} // namespace oscar
