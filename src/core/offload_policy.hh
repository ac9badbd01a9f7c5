/**
 * @file
 * Off-load decision policies (Section V-B, Figure 5).
 *
 * Four policies are modelled:
 *  - Baseline: never off-load (uni-processor execution);
 *  - SI, static instrumentation: off-line profiling identifies OS
 *    routines whose *mean* run length is at least twice the migration
 *    latency; only those are instrumented, each paying a small
 *    software cost per invocation and always off-loading
 *    (Chakraborty et al. style);
 *  - DI, dynamic instrumentation: every OS entry point carries
 *    decision code — functionally the same predictor+threshold logic
 *    as the hardware scheme but paying a software instrumentation cost
 *    on *every* privileged entry (Mogul et al. style, extended to all
 *    entry points);
 *  - HI, hardware instrumentation: the paper's proposal — the same
 *    decision quality at a single-cycle cost.
 */

#ifndef OSCAR_CORE_OFFLOAD_POLICY_HH_
#define OSCAR_CORE_OFFLOAD_POLICY_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/predictor_stats.hh"
#include "core/run_length_predictor.hh"
#include "core/threshold_controller.hh"
#include "os/invocation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace oscar
{

class MetricRegistry;

/** What the policy decided for one invocation. */
struct OffloadDecision
{
    /** True to migrate the sequence to the OS core. */
    bool offload = false;
    /** Cycles the decision itself cost (instrumentation overhead). */
    Cycle cost = 0;
    /** Predicted run length, when a predictor was consulted. */
    InstCount predictedLength = 0;
    /** True when a predictor was consulted. */
    bool predictorUsed = false;
    /** The N the prediction was compared against, when consulted. */
    InstCount threshold = 0;
    /** The lookup result, for accuracy accounting. */
    RunLengthPrediction prediction;
};

/** Selectable policy kinds. */
enum class PolicyKind : std::uint8_t
{
    Baseline,
    StaticInstrumentation,
    DynamicInstrumentation,
    HardwarePredictor,
};

/** Short display name ("base", "SI", "DI", "HI"). */
const char *policyShortName(PolicyKind kind);

/**
 * Per-service mean run lengths from an off-line profiling run; the
 * input to static instrumentation.
 */
class ServiceProfile
{
  public:
    /** Record one observed invocation length. */
    void observe(ServiceId id, InstCount length);

    /** Mean observed length of a service; 0 when never seen. */
    double meanLength(ServiceId id) const;

    /** Invocation count of a service. */
    std::uint64_t invocations(ServiceId id) const;

    /** Total observations across all services. */
    std::uint64_t totalObservations() const;

  private:
    std::array<RunningStat, kNumServices> stats{};
};

/**
 * Source of the off-load threshold N for predictive policies.
 */
class ThresholdProvider
{
  public:
    virtual ~ThresholdProvider() = default;

    /** The N to compare predictions against right now. */
    virtual InstCount threshold() const = 0;
};

/** Fixed threshold (used for the Figure 4 static sweeps). */
class StaticThreshold : public ThresholdProvider
{
  public:
    explicit StaticThreshold(InstCount n)
        : value(n)
    {}

    InstCount threshold() const override { return value; }

    /** Change the fixed value (tests/sweeps). */
    void set(InstCount n) { value = n; }

  private:
    InstCount value;
};

/** Threshold delegated to the dynamic-N controller. */
class DynamicThreshold : public ThresholdProvider
{
  public:
    explicit DynamicThreshold(const ThresholdController &controller)
        : ctrl(controller)
    {}

    InstCount threshold() const override
    {
        return ctrl.currentThreshold();
    }

  private:
    const ThresholdController &ctrl;
};

/**
 * Abstract off-load decision policy.
 */
class OffloadPolicy
{
  public:
    virtual ~OffloadPolicy() = default;

    /** Decide for one privileged entry. */
    virtual OffloadDecision decide(const OsInvocation &invocation) = 0;

    /**
     * Feed back the observed run length after the sequence completed
     * (trains predictors; no-op for non-predictive policies).
     *
     * @param invocation The invocation that completed.
     * @param decision The decision decide() returned for it.
     * @param actual_length Observed length, with interrupt extension.
     */
    virtual void observe(const OsInvocation &invocation,
                         const OffloadDecision &decision,
                         InstCount actual_length) = 0;

    /** Policy kind. */
    virtual PolicyKind kind() const = 0;

    /** Display name. */
    std::string name() const { return policyShortName(kind()); }
};

/**
 * Baseline: everything executes on the invoking core.
 */
class BaselinePolicy : public OffloadPolicy
{
  public:
    OffloadDecision decide(const OsInvocation &invocation) override;
    void observe(const OsInvocation &invocation,
                 const OffloadDecision &decision,
                 InstCount actual_length) override;
    PolicyKind kind() const override { return PolicyKind::Baseline; }
};

/**
 * SI: profile-guided static instrumentation of long-running services.
 */
class StaticInstrumentationPolicy : public OffloadPolicy
{
  public:
    /**
     * @param profile Off-line profiling result.
     * @param migration_one_way One-way migration latency; services
     *        whose mean length >= 2x this are instrumented.
     * @param instrumentation_cost Cycles per instrumented invocation
     *        (the added branch + threshold check; paper measures ~16
     *        extra instructions for even a trivial check).
     */
    StaticInstrumentationPolicy(const ServiceProfile &profile,
                                Cycle migration_one_way,
                                Cycle instrumentation_cost = 30);

    OffloadDecision decide(const OsInvocation &invocation) override;
    void observe(const OsInvocation &invocation,
                 const OffloadDecision &decision,
                 InstCount actual_length) override;
    PolicyKind kind() const override
    {
        return PolicyKind::StaticInstrumentation;
    }

    /** True when the service was selected for instrumentation. */
    bool instrumented(ServiceId id) const;

    /** Number of instrumented services. */
    unsigned instrumentedCount() const;

  private:
    std::array<bool, kNumServices> selected{};
    Cycle cost;
};

/**
 * Shared implementation of the predictor+threshold decision used by
 * both DI (software, expensive) and HI (hardware, single cycle).
 */
class PredictivePolicy : public OffloadPolicy
{
  public:
    /**
     * @param predictor Run-length predictor (owned by caller).
     * @param threshold Threshold source (owned by caller).
     * @param decision_cost Cycles charged per privileged entry.
     * @param policy_kind DI or HI.
     */
    PredictivePolicy(RunLengthPredictor &predictor,
                     const ThresholdProvider &threshold,
                     Cycle decision_cost, PolicyKind policy_kind);

    OffloadDecision decide(const OsInvocation &invocation) override;
    void observe(const OsInvocation &invocation,
                 const OffloadDecision &decision,
                 InstCount actual_length) override;
    PolicyKind kind() const override { return policyKind; }

    /** Accuracy accounting fed by observe(). */
    const PredictorStats &stats() const { return accuracy; }

    /** Mutable accuracy accounting (copied by System snapshots). */
    PredictorStats &stats() { return accuracy; }

    /**
     * Clear the measured-region distributions (measurement start):
     * accuracy and lookup confidence. Lifetime counts are untouched.
     */
    void resetStats();

    /**
     * Register this policy's predictor metrics under `<prefix>.`:
     * polls of the lifetime lookup/global-fallback/table-hit counts,
     * of an observation count in exact lockstep with
     * stats().samples() (same window-trap exclusion), of the
     * lookup-confidence histogram, and a predictor occupancy gauge.
     * The registry must outlive this policy or be frozen first.
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix);

  private:
    RunLengthPredictor &pred;
    const ThresholdProvider &thresh;
    Cycle cost;
    PolicyKind policyKind;
    PredictorStats accuracy;

    // Lifetime counts, never reset.
    std::uint64_t lookups = 0;
    std::uint64_t globalFallbacks = 0;
    std::uint64_t tableHits = 0;
    std::uint64_t observations = 0;
    /** Confidence of every lookup since measurement start. */
    LatencyHistogram lookupConfidence;
};

} // namespace oscar

#endif // OSCAR_CORE_OFFLOAD_POLICY_HH_
