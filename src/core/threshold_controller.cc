/**
 * @file
 * Implementation of the dynamic-N controller.
 */

#include "core/threshold_controller.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace oscar
{

ThresholdController::ThresholdController(const ThresholdConfig &config)
    : cfg(config)
{
    if (cfg.ladder.empty())
        oscar_fatal("threshold ladder must not be empty");
    if (!std::is_sorted(cfg.ladder.begin(), cfg.ladder.end()) ||
        std::adjacent_find(cfg.ladder.begin(), cfg.ladder.end()) !=
            cfg.ladder.end()) {
        oscar_fatal("threshold ladder must be strictly increasing");
    }
    if (cfg.epochScale <= 0.0)
        oscar_fatal("epochScale must be positive");
}

InstCount
ThresholdController::scaledSample() const
{
    return std::max<InstCount>(
        1, static_cast<InstCount>(cfg.epochScale *
                                  static_cast<double>(cfg.sampleEpoch)));
}

InstCount
ThresholdController::scaledRunBase() const
{
    return std::max<InstCount>(
        1, static_cast<InstCount>(cfg.epochScale *
                                  static_cast<double>(cfg.runEpoch)));
}

InstCount
ThresholdController::scaledRunCap() const
{
    return std::max<InstCount>(
        1, static_cast<InstCount>(cfg.epochScale *
                                  static_cast<double>(cfg.maxRunEpoch)));
}

void
ThresholdController::setPhase(Phase next)
{
    if (next != currentPhase)
        ++transitionCount;
    currentPhase = next;
}

void
ThresholdController::registerMetrics(MetricRegistry &registry)
{
    // currentThreshold() is safe in every phase, Idle included.
    registry.gauge("controller.n", [this] {
        return static_cast<double>(currentThreshold());
    });
    registry.gauge("controller.phase", [this] {
        return static_cast<double>(currentPhase);
    });
    registry.counterFn("controller.epochs",
                       [this] { return epochCount; });
    registry.counterFn("controller.rounds",
                       [this] { return roundCount; });
    registry.counterFn("controller.switches",
                       [this] { return switchCount; });
    registry.counterFn("controller.transitions",
                       [this] { return transitionCount; });
}

void
ThresholdController::begin(double priv_fraction)
{
    const InstCount initial = priv_fraction > cfg.privFractionBoundary
                                  ? cfg.initialHighPriv
                                  : cfg.initialLowPriv;
    // Snap to the nearest ladder entry at or below the initial value.
    currentIndex = 0;
    for (std::size_t i = 0; i < cfg.ladder.size(); ++i) {
        if (cfg.ladder[i] <= initial)
            currentIndex = i;
    }
    runLength = scaledRunBase();
    // Clear any sampling state a previous round left behind so a
    // re-begin() cannot reach a neighbour phase with stale flags.
    sampleCurrentRate = 0.0;
    sampleLowerRate = -1.0;
    sampleUpperRate = -1.0;
    lowerExists = false;
    upperExists = false;
    setPhase(Phase::SampleCurrent);
}

InstCount
ThresholdController::currentThreshold() const
{
    switch (currentPhase) {
      case Phase::SampleLower:
        // The SampleLower phase is only entered when a lower neighbour
        // exists; guard against index underflow at the ladder bottom.
        oscar_assert(lowerExists && currentIndex > 0);
        return cfg.ladder[currentIndex - 1];
      case Phase::SampleUpper:
        oscar_assert(upperExists &&
                     currentIndex + 1 < cfg.ladder.size());
        return cfg.ladder[currentIndex + 1];
      case Phase::Idle:
      case Phase::SampleCurrent:
      case Phase::Run:
        oscar_assert(currentIndex < cfg.ladder.size());
        return cfg.ladder[currentIndex];
    }
    oscar_panic("bad controller phase");
}

InstCount
ThresholdController::epochLength() const
{
    switch (currentPhase) {
      case Phase::Idle:
        oscar_panic("epochLength before begin()");
      case Phase::SampleCurrent:
      case Phase::SampleLower:
      case Phase::SampleUpper:
        return scaledSample();
      case Phase::Run:
        return runLength;
    }
    oscar_panic("bad controller phase");
}

void
ThresholdController::concludeRound()
{
    ++roundCount;
    std::size_t winner = currentIndex;
    double winner_rate =
        cfg.relativeImprovement
            ? sampleCurrentRate * (1.0 + cfg.improvementDelta)
            : sampleCurrentRate + cfg.improvementDelta;
    // A neighbour must beat the incumbent by the delta; ties favour
    // the incumbent (avoids oscillation on noise). A neighbour is
    // only considered when its sample was actually taken this round.
    if (lowerExists && currentIndex > 0 &&
        sampleLowerRate >= winner_rate) {
        winner = currentIndex - 1;
        winner_rate = sampleLowerRate;
    }
    if (upperExists && currentIndex + 1 < cfg.ladder.size() &&
        sampleUpperRate >= winner_rate) {
        winner = currentIndex + 1;
    }

    if (winner != currentIndex) {
        currentIndex = winner;
        ++switchCount;
        runLength = scaledRunBase();
    } else {
        // Incumbent confirmed: stretch the undisturbed run.
        runLength = std::min<InstCount>(runLength * 2, scaledRunCap());
    }
    setPhase(Phase::Run);
}

void
ThresholdController::onEpochEnd(double l2_hit_rate)
{
    if (currentPhase == Phase::Idle)
        oscar_panic("onEpochEnd before begin()");
    ++epochCount;
    switch (currentPhase) {
      case Phase::Idle:
        oscar_panic("onEpochEnd before begin()");
      case Phase::SampleCurrent:
        sampleCurrentRate = l2_hit_rate;
        lowerExists = currentIndex > 0;
        upperExists = currentIndex + 1 < cfg.ladder.size();
        sampleLowerRate = -1.0;
        sampleUpperRate = -1.0;
        if (lowerExists) {
            setPhase(Phase::SampleLower);
        } else if (upperExists) {
            setPhase(Phase::SampleUpper);
        } else {
            concludeRound();
        }
        return;
      case Phase::SampleLower:
        sampleLowerRate = l2_hit_rate;
        if (upperExists) {
            setPhase(Phase::SampleUpper);
        } else {
            concludeRound();
        }
        return;
      case Phase::SampleUpper:
        sampleUpperRate = l2_hit_rate;
        concludeRound();
        return;
      case Phase::Run:
        // The undisturbed run ended: start the next sampling round.
        setPhase(Phase::SampleCurrent);
        return;
    }
}

std::string
ThresholdController::phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Idle: return "idle";
      case Phase::SampleCurrent: return "sample-current";
      case Phase::SampleLower: return "sample-lower";
      case Phase::SampleUpper: return "sample-upper";
      case Phase::Run: return "run";
    }
    return "?";
}

} // namespace oscar
