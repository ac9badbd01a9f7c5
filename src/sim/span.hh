/**
 * @file
 * Per-request span recording: timestamped phase segments attributing
 * every cycle of a request's end-to-end latency to a pipeline phase.
 *
 * A request served by the simulator passes through a fixed set of
 * phases — dispatch-queue wait, user-segment execution, the offload
 * decision, inline or off-loaded OS execution, migration hops, spill
 * and steal handoffs, and OS-queue wait. The span recorder captures
 * one segment per phase occurrence with its start cycle and length,
 * and folds per-request phase totals into mergeable per-phase
 * LatencyHistograms at request completion. Because every event on the
 * serving path is scheduled exactly at the end of the previous
 * segment, the segments of a span tile the request's lifetime with no
 * gaps or overlaps: the sum of segment cycles equals the end-to-end
 * latency *exactly*, which the validator and a ctest both enforce.
 *
 * The recorder reads the same records a trace sink does (TraceEvent,
 * sim/trace.hh), span-only kinds included, and owns the mapping from
 * event kinds to phases. A System holds a nullable pointer and builds
 * no span-only record when detached, so golden traces and sweep
 * artifacts stay byte-identical with spans off.
 */

#ifndef OSCAR_SIM_SPAN_HH_
#define OSCAR_SIM_SPAN_HH_

#include <array>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace oscar
{

struct TraceEvent;

/**
 * Pipeline phase a span segment belongs to. Order is the canonical
 * schema order of `oscar.spans.v1`; keep kCount last.
 */
enum class SpanPhase : std::uint8_t
{
    DispatchWait,  ///< issue to dispatch from the per-thread queue
    User,          ///< user-mode segment execution
    Decision,      ///< offload-policy decision cost
    OsInline,      ///< OS service executed inline on the user core
    MigrationOut,  ///< user core to OS core migration hop
    Spill,         ///< overflow spill transfer between OS queues
    OsQueueWait,   ///< waiting in an OS-core queue (transfer excluded)
    Steal,         ///< work-steal transfer to the thief queue
    OsExec,        ///< OS service executed on an OS core
    MigrationBack, ///< OS core back to user core migration hop
    kCount,        ///< number of phases; keep last
};

/** Number of span phases. */
inline constexpr std::size_t kNumSpanPhases =
    static_cast<std::size_t>(SpanPhase::kCount);

/** Schema identifier of the span JSONL artifact. */
inline constexpr const char *kSpansSchema = "oscar.spans.v1";

/** Canonical short name of a phase (schema identifier). */
const char *spanPhaseName(SpanPhase phase);

/** Sentinel for "segment has no OS service". */
inline constexpr std::uint16_t kNoSpanService = 0xFFFFu;

/** Sentinel for "segment has no queue". */
inline constexpr std::uint32_t kNoSpanQueue = 0xFFFFFFFFu;

/**
 * One contiguous stretch of a request's lifetime attributed to a
 * single phase.
 */
struct SpanSegment
{
    SpanPhase phase = SpanPhase::User;
    Cycle start = 0;
    Cycle cycles = 0;
    /** OS service id for OS-related phases; kNoSpanService otherwise. */
    std::uint16_t service = kNoSpanService;
    /** OS queue index for queue-related phases; kNoSpanQueue otherwise. */
    std::uint32_t queue = kNoSpanQueue;
};

/**
 * Full span of one request: identity, lifetime timestamps, and the
 * phase segments that tile [issued, completed].
 */
struct RequestSpan
{
    std::uint64_t requestId = 0;
    std::uint32_t tenant = 0;
    std::uint32_t thread = 0;
    /** User/OS segment pairs the request expanded into. */
    std::uint32_t segments = 0;
    /** Seed of the run that recorded the span (exemplar ordering). */
    std::uint64_t seed = 0;
    Cycle issued = 0;
    Cycle started = 0;
    Cycle completed = 0;
    std::vector<SpanSegment> segs;

    /** End-to-end latency in cycles. */
    Cycle latency() const { return completed - issued; }

    /** Sum of segment cycles attributed to one phase. */
    Cycle phaseTotal(SpanPhase phase) const;
};

/**
 * Exemplar ordering: slowest first, ties broken by run seed then
 * request id. A total order over spans from any set of replicas, so
 * re-sorting after any merge sequence yields the same reservoir —
 * exemplars are --jobs and replica-sharding invariant.
 */
bool spanSlower(const RequestSpan &a, const RequestSpan &b);

/**
 * Aggregated span output of one run (or a merge of runs): per-phase
 * latency histograms over per-request phase totals, the end-to-end
 * total histogram, and the tail-exemplar reservoir.
 */
struct SpanResults
{
    /** Spans finalized inside the measurement window. */
    std::uint64_t spansRecorded = 0;
    /** Reservoir capacity (slowest-N requests keep full spans). */
    std::size_t exemplarCapacity = 8;
    /** End-to-end latency totals (mirrors serving requestLatency). */
    LatencyHistogram total;
    /**
     * Per-phase totals, one sample per recorded span and phase (zero
     * when the request never entered the phase), so every phase
     * histogram has count() == spansRecorded and the phase sums add
     * up to total.sum() exactly.
     */
    std::array<LatencyHistogram, kNumSpanPhases> phase;
    /** Slowest spans, ordered by spanSlower. */
    std::vector<RequestSpan> exemplars;

    /**
     * Fold another run's results in: counts add, histograms merge
     * bucket-wise, and the exemplar reservoirs re-sort and truncate to
     * the larger capacity. Commutative up to the deterministic final
     * ordering, which is what makes sharded folds invariant.
     */
    void merge(const SpanResults &other);
};

/**
 * Records spans for one System from its event records. Attach before
 * run() via System::setSpanRecorder, which hands it every record the
 * System emits.
 */
class SpanRecorder
{
  public:
    /** @param exemplar_capacity Slowest-N spans kept in full. */
    explicit SpanRecorder(std::size_t exemplar_capacity = 8);

    /** Size per-thread state; called by the System on attach. */
    void bind(std::size_t thread_count, std::uint64_t run_seed);

    /**
     * Read one event record: a request start opens the thread's span,
     * a request end closes it (and folds it into the aggregates when
     * measuring), and each event between adds its phase's segment.
     */
    void record(const TraceEvent &event);

    /** Drop open spans and aggregates (measurement-window reset). */
    void reset();

    /** Aggregated results recorded so far. */
    const SpanResults &results() const { return aggregates; }

  private:
    struct ActiveSpan
    {
        bool active = false;
        /** Steal transfer inside the wait the next OsQueueWait ends. */
        Cycle pendingSteal = 0;
        RequestSpan span;
    };

    void openSpan(const TraceEvent &event);
    void closeSpan(const TraceEvent &event);

    std::vector<ActiveSpan> threads;
    SpanResults aggregates;
    std::uint64_t runSeed = 0;
};

} // namespace oscar

#endif // OSCAR_SIM_SPAN_HH_
