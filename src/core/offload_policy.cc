/**
 * @file
 * Implementation of the off-load decision policies.
 */

#include "core/offload_policy.hh"

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace oscar
{

const char *
policyShortName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Baseline: return "base";
      case PolicyKind::StaticInstrumentation: return "SI";
      case PolicyKind::DynamicInstrumentation: return "DI";
      case PolicyKind::HardwarePredictor: return "HI";
    }
    return "?";
}

// ---------------------------------------------------------------------
// ServiceProfile

void
ServiceProfile::observe(ServiceId id, InstCount length)
{
    const auto index = static_cast<std::size_t>(id);
    oscar_assert(index < stats.size());
    stats[index].add(static_cast<double>(length));
}

double
ServiceProfile::meanLength(ServiceId id) const
{
    const auto index = static_cast<std::size_t>(id);
    oscar_assert(index < stats.size());
    return stats[index].mean();
}

std::uint64_t
ServiceProfile::invocations(ServiceId id) const
{
    const auto index = static_cast<std::size_t>(id);
    oscar_assert(index < stats.size());
    return stats[index].count();
}

std::uint64_t
ServiceProfile::totalObservations() const
{
    std::uint64_t total = 0;
    for (const RunningStat &s : stats)
        total += s.count();
    return total;
}

// ---------------------------------------------------------------------
// BaselinePolicy

OffloadDecision
BaselinePolicy::decide(const OsInvocation &invocation)
{
    (void)invocation;
    return OffloadDecision{};
}

void
BaselinePolicy::observe(const OsInvocation &invocation,
                        const OffloadDecision &decision,
                        InstCount actual_length)
{
    (void)invocation;
    (void)decision;
    (void)actual_length;
}

// ---------------------------------------------------------------------
// StaticInstrumentationPolicy

StaticInstrumentationPolicy::StaticInstrumentationPolicy(
    const ServiceProfile &profile, Cycle migration_one_way,
    Cycle instrumentation_cost)
    : cost(instrumentation_cost)
{
    // Instrument the services whose profiled mean run length is at
    // least twice the off-loading (migration) latency.
    const double cutoff = 2.0 * static_cast<double>(migration_one_way);
    for (std::size_t i = 0; i < kNumServices; ++i) {
        const auto id = static_cast<ServiceId>(i);
        selected[i] = profile.invocations(id) > 0 &&
                      profile.meanLength(id) >= cutoff;
    }
}

OffloadDecision
StaticInstrumentationPolicy::decide(const OsInvocation &invocation)
{
    oscar_assert(invocation.service != nullptr);
    OffloadDecision decision;
    const auto index = static_cast<std::size_t>(invocation.service->id);
    if (selected[index]) {
        // Only instrumented entry points pay the software overhead;
        // their embedded static check always chooses to off-load.
        decision.offload = true;
        decision.cost = cost;
    }
    return decision;
}

void
StaticInstrumentationPolicy::observe(const OsInvocation &invocation,
                                     const OffloadDecision &decision,
                                     InstCount actual_length)
{
    (void)invocation;
    (void)decision;
    (void)actual_length;
}

bool
StaticInstrumentationPolicy::instrumented(ServiceId id) const
{
    return selected[static_cast<std::size_t>(id)];
}

unsigned
StaticInstrumentationPolicy::instrumentedCount() const
{
    unsigned count = 0;
    for (bool s : selected) {
        if (s)
            ++count;
    }
    return count;
}

// ---------------------------------------------------------------------
// PredictivePolicy

PredictivePolicy::PredictivePolicy(RunLengthPredictor &predictor,
                                   const ThresholdProvider &threshold,
                                   Cycle decision_cost,
                                   PolicyKind policy_kind)
    : pred(predictor), thresh(threshold), cost(decision_cost),
      policyKind(policy_kind)
{
    oscar_assert(policy_kind == PolicyKind::DynamicInstrumentation ||
                 policy_kind == PolicyKind::HardwarePredictor);
}

void
PredictivePolicy::resetStats()
{
    accuracy.reset();
    lookupConfidence.reset();
}

void
PredictivePolicy::registerMetrics(MetricRegistry &registry,
                                  const std::string &prefix)
{
    registry.counterFn(prefix + ".lookups", [this] { return lookups; });
    registry.counterFn(prefix + ".global_fallbacks",
                       [this] { return globalFallbacks; });
    registry.counterFn(prefix + ".table_hits",
                       [this] { return tableHits; });
    registry.counterFn(prefix + ".observations",
                       [this] { return observations; });
    registry.histogramFn(prefix + ".confidence", lookupConfidence);
    RunLengthPredictor *p = &pred;
    registry.gauge(prefix + ".occupancy", [p] {
        return static_cast<double>(p->occupancy());
    });
}

OffloadDecision
PredictivePolicy::decide(const OsInvocation &invocation)
{
    OffloadDecision decision;
    decision.prediction = pred.predict(invocation.astate());
    decision.predictedLength = decision.prediction.length;
    decision.predictorUsed = true;
    decision.cost = cost;
    decision.threshold = thresh.threshold();
    decision.offload = decision.predictedLength > decision.threshold;
    ++lookups;
    globalFallbacks += decision.prediction.fromGlobal ? 1 : 0;
    tableHits += decision.prediction.tableHit ? 1 : 0;
    lookupConfidence.add(decision.prediction.confidence);
    return decision;
}

void
PredictivePolicy::observe(const OsInvocation &invocation,
                          const OffloadDecision &decision,
                          InstCount actual_length)
{
    pred.update(invocation.astate(), actual_length);
    if (decision.predictorUsed) {
        const bool counted = accuracy.record(decision.prediction,
                                             actual_length,
                                             invocation.isWindowTrap());
        // Lockstep with samples(): only count what record() counted.
        observations += counted ? 1 : 0;
    }
}

} // namespace oscar
