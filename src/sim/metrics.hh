/**
 * @file
 * Simulator-wide metric registry with epoch time-series sampling.
 *
 * The paper's mechanisms are time-varying — the ThresholdController
 * searches for N epoch by epoch (Section III-B) and the predictor's
 * confidence counters train over the run (Section III-A) — yet
 * end-of-run aggregates collapse those trajectories into single
 * numbers. MetricRegistry gives every layer of the simulator a
 * hierarchically named metric namespace plus a periodic sampler that
 * snapshots every registered metric into an in-memory time series,
 * later exported as an `oscar.metrics.v1` JSONL artifact (see
 * system/metrics_capture.hh).
 *
 * The registry owns no storage. Each component owns its values —
 * lifetime event counts that are never reset (MemorySystem's
 * CoreMemStats, Core's CycleBreakdown, OsCoreQueue's OsQueueCounters,
 * PredictivePolicy's lookup counts, System's own counters) and
 * LatencyHistograms that restart at measurement start (OsCoreQueue's
 * wait, System's request latency, PredictivePolicy's lookup
 * confidence) — and the registry polls them at sample time. SimResults
 * reads the same stores: counters as the lifetime value minus a mark
 * the System copies at measurement start, the queue-wait and
 * request-latency histograms as they stand at the end of the run.
 * Three metric kinds, all polled:
 *
 *  - counter: a monotone uint64 (counterFn), so the hot path updates
 *    the component's field and nothing else.
 *  - gauge: an instantaneous value (queue depth, CAM occupancy, the N
 *    in force).
 *  - histogram: a component's LatencyHistogram (histogramFn), expanded
 *    into gauge series `.count`, `.mean`, `.p50` and `.p99`.
 *
 * Metrics never feed back into simulation: attaching a registry
 * perturbs no event ordering, RNG draw, or decision, so golden traces
 * are byte-identical with metrics enabled and disabled, and sampling a
 * deterministic run always yields byte-identical series.
 *
 * Naming scheme (DESIGN.md §10): dot-separated lowercase components,
 * most-general first — `mem.core0.l2.user.hits`, `os.queue.depth`,
 * `controller.n`. Registration order is fixed by the single-threaded
 * System wiring, so series order is deterministic too.
 */

#ifndef OSCAR_SIM_METRICS_HH_
#define OSCAR_SIM_METRICS_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace oscar
{

/** Schema identifier of the exported metrics artifact. */
inline constexpr const char *kMetricsSchema = "oscar.metrics.v1";

/** What a series measures; drives cumulative/delta semantics. */
enum class MetricKind : std::uint8_t
{
    /** Monotone non-decreasing count; delta is events per sample. */
    Counter,
    /** Instantaneous value; delta is change since the last sample. */
    Gauge,
};

/** Stable serialization name of a metric kind. */
const char *metricKindName(MetricKind kind);

/**
 * Registry of named metrics plus the sampled time series.
 */
class MetricRegistry
{
  public:
    /** One exported column of the time series. */
    struct Series
    {
        /** Full dotted name (histograms carry a derived suffix). */
        std::string name;
        /** Kind governing delta semantics for this column. */
        MetricKind kind = MetricKind::Counter;
    };

    /** One snapshot of every series. */
    struct Sample
    {
        /** Total retired instructions when the snapshot was taken. */
        std::uint64_t instant = 0;
        /** Simulated cycle when the snapshot was taken. */
        Cycle cycle = 0;
        /** Cumulative values, one per series, in series order. */
        std::vector<double> values;
    };

    /** Sentinel for "no measurement-start sample recorded". */
    static constexpr std::size_t kNoSample =
        static_cast<std::size_t>(-1);

    /**
     * @param sample_every Periodic sampling interval in retired
     *        instructions; 0 disables periodic sampling (forced
     *        samples are still taken).
     */
    explicit MetricRegistry(std::uint64_t sample_every = 1'000'000);

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    // -- registration -------------------------------------------------

    /**
     * Register a polled counter: `poll` is invoked at sample time and
     * must be monotone non-decreasing over the run.
     *
     * Every registration fatals on an empty or malformed name and on
     * a series name that is already taken.
     */
    void counterFn(const std::string &name,
                   std::function<std::uint64_t()> poll);

    /** Register a gauge polled at sample time. */
    void gauge(const std::string &name, std::function<double()> poll);

    /**
     * Register a polled histogram: expands into four gauge series,
     * `<name>.count`, `.mean`, `.p50` and `.p99`, read from `hist` at
     * sample time. `hist` must outlive the registry or be frozen.
     */
    void histogramFn(const std::string &name, const LatencyHistogram &hist);

    // -- inspection ---------------------------------------------------

    /** Exported series, in registration order. */
    const std::vector<Series> &series() const { return columns; }

    /** Index of a series by full name, or -1 when absent. */
    std::ptrdiff_t seriesIndex(const std::string &name) const;

    /** Current cumulative value of every series, in series order. */
    std::vector<double> readSeries() const;

    /** Current cumulative value of one series; fatal when unknown. */
    double seriesValue(const std::string &name) const;

    /**
     * Pin every series at its current value. Polled series read their
     * component's fields, so the owner of those components calls this
     * before destroying them; the registry stays readable afterwards.
     */
    void freeze();

    // -- sampling -----------------------------------------------------

    /** Periodic sampling interval (instructions); 0 when disabled. */
    std::uint64_t sampleEvery() const { return interval; }

    /**
     * Snapshot every series now.
     *
     * Instants must be monotone; a snapshot at the same instant as the
     * previous one is skipped (the existing row already covers it)
     * unless `refresh_equal` is set, in which case the existing row is
     * re-read in place — used for the forced measurement-start and
     * end-of-run samples, whose values may have advanced since a
     * periodic sample at the same instant. Exported instants stay
     * strictly monotone either way.
     *
     * @param instant Total retired instructions.
     * @param cycle Current simulated cycle.
     * @param refresh_equal Re-read an existing equal-instant row.
     * @return Index of the row covering this instant.
     */
    std::size_t takeSample(std::uint64_t instant, Cycle cycle,
                           bool refresh_equal = false);

    /** Recorded samples, oldest first. */
    const std::vector<Sample> &samples() const { return rows; }

    /**
     * Mark a sample row as the measurement-start snapshot: the row
     * taken at the same instant the System copies its counter mark.
     * Counters are never reset, so "final minus this row" equals the
     * measured-region results — the consistency cross-check the
     * integration tests assert.
     */
    void setMeasurementStartSample(std::size_t index);

    /** Measurement-start row index, or kNoSample. */
    std::size_t measurementStartSample() const { return measureRow; }

  private:
    /** Append one series column with its reader; fatal on a bad name. */
    void addSeries(std::string name, MetricKind kind,
                   std::function<double()> reader);

    std::uint64_t interval;
    std::vector<Series> columns;
    /** One reader per series, index-aligned with `columns`. */
    std::vector<std::function<double()>> readers;
    std::vector<Sample> rows;
    std::size_t measureRow = kNoSample;
};

} // namespace oscar

#endif // OSCAR_SIM_METRICS_HH_
