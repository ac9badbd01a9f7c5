/**
 * @file
 * Experiment helpers shared by the bench harnesses and examples:
 * canned configurations, off-line profiling for SI, normalized
 * throughput comparisons, and plain-text table rendering.
 */

#ifndef OSCAR_SYSTEM_EXPERIMENT_HH_
#define OSCAR_SYSTEM_EXPERIMENT_HH_

#include <memory>
#include <string>
#include <vector>

#include "system/system.hh"

namespace oscar
{

/**
 * Canned configurations and comparison runs.
 */
class ExperimentRunner
{
  public:
    /** Uni-processor baseline: one core, no off-loading (Figure 4/5). */
    static SystemConfig baselineConfig(WorkloadKind workload,
                                       std::uint64_t seed = 42);

    /**
     * Off-loading configuration with the HI policy and a fixed N.
     *
     * @param workload Benchmark.
     * @param static_n Off-load trigger threshold.
     * @param migration_one_way One-way migration latency in cycles.
     * @param seed Root seed (match the baseline's for comparisons).
     */
    static SystemConfig hardwareConfig(WorkloadKind workload,
                                       InstCount static_n,
                                       Cycle migration_one_way,
                                       std::uint64_t seed = 42);

    /** Same as hardwareConfig but with the dynamic-N controller. */
    static SystemConfig hardwareDynamicConfig(WorkloadKind workload,
                                              Cycle migration_one_way,
                                              std::uint64_t seed = 42);

    /** DI: software instrumentation of every OS entry point. */
    static SystemConfig dynamicInstrConfig(WorkloadKind workload,
                                           Cycle migration_one_way,
                                           Cycle di_cost,
                                           std::uint64_t seed = 42);

    /** SI: static instrumentation; profile collected automatically. */
    static SystemConfig
    staticInstrConfig(WorkloadKind workload, Cycle migration_one_way,
                      std::shared_ptr<const ServiceProfile> profile,
                      std::uint64_t seed = 42);

    /**
     * Run a short profiling pass (baseline policy) and return the
     * per-service mean run lengths — the paper's "off-line profiling".
     */
    static std::shared_ptr<const ServiceProfile>
    profileServices(WorkloadKind workload, std::uint64_t seed = 42);

    /**
     * Build and run a system with any combination of trace sink,
     * metric registry, and span recorder attached (see sim/trace.hh,
     * sim/metrics.hh, sim/span.hh). Null arguments attach nothing; a
     * non-null recorder requires a serving configuration, and the
     * registry must outlive the call.
     */
    static SimResults run(const SystemConfig &config,
                          TraceSink *trace = nullptr,
                          MetricRegistry *metrics = nullptr,
                          SpanRecorder *spans = nullptr);

    /**
     * Run a configuration and its uni-processor baseline with the same
     * seed, returning variant throughput / baseline throughput — the
     * normalized IPC of Figures 4 and 5.
     */
    static double normalizedThroughput(const SystemConfig &config);

    /**
     * Uni-processor baseline for a full variant configuration:
     * run(baselineVariant(config)), computed once per process under
     * baselineCacheKey(). The baseline keeps every environment knob of
     * the variant (cache geometry, memory timings, interrupt rate,
     * coupling scale, serving front-end, seed, warmup/measure lengths)
     * and strips only the off-loading machinery. The sweep runner
     * computes the same baselines as sub-jobs of its own and never
     * touches this cache.
     */
    static SimResults baselineResults(const SystemConfig &config);

    /** Reset the baseline cache (tests). */
    static void clearBaselineCache();

    /** Baselines currently cached (tests check that a sweep adds none). */
    static std::size_t cachedBaselines();
};

/**
 * Minimal fixed-width text table for bench output.
 */
class TextTable
{
  public:
    /** @param headers Column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::string> columnHeaders;
    std::vector<std::vector<std::string>> rows;
};

/** Format a double with fixed decimals. */
std::string formatDouble(double value, int decimals = 3);

/**
 * The uni-processor baseline derived from a full variant config: a
 * default-constructed SystemConfig is already the Baseline uni-core
 * machine, so only the environment knobs carry over. Everything
 * off-loading-specific (policy, predictor, thresholds, decision
 * costs, SI profile, topology, migration latency) stays at its
 * default — none of it is consulted when off-loading is disabled,
 * and canonicalizing it keeps the cache key from fragmenting.
 */
SystemConfig baselineVariant(const SystemConfig &config);

/**
 * Identity of a baselineVariant() config: its environment
 * (appendConfigEnvironmentKey) plus the measured horizon. Two
 * variants share a baseline exactly when their keys match.
 */
std::string baselineCacheKey(const SystemConfig &baseline);

/**
 * Append a textual encoding of every configuration field that shapes
 * a run's warm-up prefix under the Baseline policy — workload, seed,
 * warmup length, coupling scale, interrupt rate, cache geometry,
 * memory timings, and the serving front-end (minus its measured
 * horizon). Shared by the baseline-result cache and the sweep
 * runner's warm-snapshot cache so the two can never disagree about
 * which environments are interchangeable.
 */
void appendConfigEnvironmentKey(std::string &key,
                                const SystemConfig &config);

/**
 * Cache key of a point's fork group: a textual encoding of every
 * field that shapes the canonical warmer's prefix (environment fields
 * via appendConfigEnvironmentKey, plus core counts and topology
 * shape). Policy/threshold/predictor fields and the measured horizon
 * are deliberately absent — points differing only in those share a
 * snapshot.
 */
std::string sweepWarmupKey(const SystemConfig &config);

} // namespace oscar

#endif // OSCAR_SYSTEM_EXPERIMENT_HH_
