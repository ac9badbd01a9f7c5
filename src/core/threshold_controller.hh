/**
 * @file
 * Dynamic estimation of the off-load trigger threshold N
 * (Section III-B).
 *
 * The mechanism is epoch based and runs in software at coarse
 * granularity. Bootstrapping: N starts at 1,000 when more than 10 % of
 * instructions retire in privileged mode, else at 10,000. Each
 * sampling round measures the averaged L2 hit rate of the user and OS
 * cores for the current N and for its two ladder neighbours over
 * 25 M-instruction epochs; a neighbour that improves the hit rate by
 * at least one percentage point becomes the new N. Between sampling
 * rounds the system runs undisturbed for 100 M instructions, doubling
 * (up to a cap) while the current N keeps winning and dropping back to
 * 100 M as soon as it does not.
 */

#ifndef OSCAR_CORE_THRESHOLD_CONTROLLER_HH_
#define OSCAR_CORE_THRESHOLD_CONTROLLER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace oscar
{

class MetricRegistry;

/** Tuning knobs of the dynamic-N mechanism (paper defaults). */
struct ThresholdConfig
{
    /** Candidate N ladder; must be strictly increasing. */
    std::vector<InstCount> ladder = {0, 100, 500, 1000, 5000, 10000, 50000};
    /** Initial N when the privileged fraction exceeds the boundary. */
    InstCount initialHighPriv = 1000;
    /** Initial N otherwise. */
    InstCount initialLowPriv = 10000;
    /** Privileged-instruction fraction separating the two starts. */
    double privFractionBoundary = 0.10;
    /** Minimum feedback improvement to switch N (1 % = 0.01). */
    double improvementDelta = 0.01;
    /**
     * Interpret improvementDelta relatively (winner must beat the
     * incumbent by delta * incumbent) instead of additively. Additive
     * matches the paper's "1 % better L2 hit rate"; relative suits
     * IPC-valued feedback.
     */
    bool relativeImprovement = false;
    /** Instructions per sampling epoch (paper: 25 M). */
    InstCount sampleEpoch = 25'000'000;
    /** Instructions per undisturbed run epoch (paper: 100 M). */
    InstCount runEpoch = 100'000'000;
    /** Cap on the doubled run epoch (paper doubles 100 M to 200 M). */
    InstCount maxRunEpoch = 400'000'000;
    /**
     * Scale factor applied to all epoch lengths so experiments finish
     * quickly; the control logic is unchanged.
     */
    double epochScale = 1.0;
};

/**
 * Epoch-driven threshold controller.
 */
class ThresholdController
{
  public:
    /** Controller phase, exposed for tests and traces. */
    enum class Phase : std::uint8_t
    {
        Idle,          ///< begin() not yet called
        SampleCurrent, ///< measuring the incumbent N
        SampleLower,   ///< measuring the ladder neighbour below
        SampleUpper,   ///< measuring the ladder neighbour above
        Run,           ///< running undisturbed with the winner
    };

    explicit ThresholdController(const ThresholdConfig &config);

    /**
     * Start the mechanism once the privileged fraction is known
     * (measured during warmup).
     */
    void begin(double priv_fraction);

    /** The N the off-load decision should use right now. */
    InstCount currentThreshold() const;

    /** Instructions until the next epoch boundary. */
    InstCount epochLength() const;

    /**
     * Advance the state machine at an epoch boundary.
     *
     * @param l2_hit_rate Averaged user+OS L2 hit rate over the epoch
     *        that just ended.
     */
    void onEpochEnd(double l2_hit_rate);

    /** Current phase. */
    Phase phase() const { return currentPhase; }

    /**
     * The incumbent N: the ladder entry sampling rounds compare their
     * neighbours against (currentThreshold() differs from it only
     * while a neighbour is being sampled).
     */
    InstCount incumbent() const { return cfg.ladder[currentIndex]; }

    /** Number of times N changed after a sampling round. */
    std::uint64_t switches() const { return switchCount; }

    /** Number of completed sampling rounds. */
    std::uint64_t rounds() const { return roundCount; }

    /** Number of epoch-end verdicts processed (onEpochEnd calls). */
    std::uint64_t epochs() const { return epochCount; }

    /** Number of sampling-state (phase) transitions, begin() included. */
    std::uint64_t transitions() const { return transitionCount; }

    /** Phase name for traces. */
    static std::string phaseName(Phase phase);

    /**
     * Register controller metrics under `controller.`: the N in force
     * and the phase as gauges, plus epoch/round/switch/transition
     * counters. Call at most once; the registry must outlive this
     * controller.
     */
    void registerMetrics(MetricRegistry &registry);

  private:
    /** Scaled epoch lengths. */
    InstCount scaledSample() const;
    InstCount scaledRunBase() const;
    InstCount scaledRunCap() const;

    /** Decide the winner after all samples of a round are in. */
    void concludeRound();

    /** Change phase, counting the transition. */
    void setPhase(Phase next);

    ThresholdConfig cfg;
    Phase currentPhase = Phase::Idle;
    std::size_t currentIndex = 0;
    InstCount runLength = 0;

    double sampleCurrentRate = 0.0;
    double sampleLowerRate = -1.0;
    double sampleUpperRate = -1.0;
    bool lowerExists = false;
    bool upperExists = false;

    std::uint64_t switchCount = 0;
    std::uint64_t roundCount = 0;
    std::uint64_t epochCount = 0;
    std::uint64_t transitionCount = 0;
};

} // namespace oscar

#endif // OSCAR_CORE_THRESHOLD_CONTROLLER_HH_
