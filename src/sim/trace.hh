/**
 * @file
 * Invocation-level trace recording (`oscar.trace.v1`).
 *
 * The off-loading mechanism lives or dies on per-invocation details —
 * the AState hash, the predicted vs. actual run length, the decision
 * at threshold N, the migration and queueing costs — yet aggregate
 * results only show their sum. System is the only emitter: it builds
 * every event from state it already holds (the OffloadDecision for a
 * predictor lookup, the return values of the OS-core queue for queue
 * enter/exit, the controller's incumbent N and switch count around an
 * epoch boundary) and stamps it with the current simulated cycle.
 *
 * A TraceEvent is the one record of an event: built once, under one
 * guard, and read by the TraceSink and the SpanRecorder (sim/span.hh)
 * alike. Since simulation is single-threaded per System, events arrive
 * in a deterministic total order: the same configuration and seed
 * always produce a byte-identical serialized trace, which is what the
 * replay and golden-trace regression tests assert.
 *
 * Two sinks are provided: MemoryTraceSink (keeps every event, for
 * tests) and JsonlTraceSink (streaming `oscar.trace.v1` JSONL
 * writer, for bench artifacts). The serialized schema is documented in
 * DESIGN.md §trace.
 */

#ifndef OSCAR_SIM_TRACE_HH_
#define OSCAR_SIM_TRACE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/types.hh"

namespace oscar
{

/** Schema identifier emitted in every trace header. */
inline constexpr const char *kTraceSchema = "oscar.trace.v1";

/** Sentinel for "no thread attached to this event". */
inline constexpr std::uint32_t kNoTraceThread = 0xFFFFFFFFu;

/** Sentinel for "no service attached to this event". */
inline constexpr std::uint16_t kNoTraceService = 0xFFFFu;

/** Sentinel for "no OS-core queue attached to this event". */
inline constexpr std::uint32_t kNoTraceQueue = 0xFFFFFFFFu;

/** What happened; selects which TraceEvent fields are meaningful. */
enum class TraceEventKind : std::uint8_t
{
    /** A thread entered privileged mode (invocation dispatched). */
    InvocationBegin,
    /** A predictive policy consulted its run-length predictor. */
    PredictorLookup,
    /** The off-load decision for one invocation. */
    Decision,
    /** A thread migrated between a user core and the OS core. */
    Migration,
    /** An off-load request reached a busy OS core and queued. */
    QueueEnter,
    /** A queued request was admitted to the OS core. */
    QueueExit,
    /** An invocation's outcome (actual run length) became known. */
    InvocationEnd,
    /** A dynamic-N controller epoch ended. */
    EpochEnd,
    /** The threshold N in force changed (or was initialized). */
    ThresholdChange,
    /** Warmup ended; the measured region begins. */
    MeasurementStart,
    /** A request started service on a server thread (serving mode). */
    RequestStart,
    /** A request completed; latency carries its end-to-end cycles. */
    RequestEnd,
    /** An idle OS core stole a waiting request from a peer queue. */
    Steal,
    /** An arrival overflowed from its home queue to a peer queue. */
    Spill,
    // Span-only kinds, after every traced one: no trace line shows
    // a user burst, an OS-queue wait ending (latency includes steal
    // transfers) or an OS core's execution of an off-loaded service.
    UserBurst,
    OsQueueWait,
    OsExec,
};

/** Stable serialization name of an event kind. */
const char *traceEventKindName(TraceEventKind kind);

/**
 * One event record. A flat struct: every field exists for every kind,
 * but only the subset listed per kind in DESIGN.md is serialized, and
 * the span fields (start, cycles, measuring) never are.
 */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::InvocationBegin;
    /** Emission cycle, stamped by the emitter. */
    Cycle cycle = 0;
    /** Emitting thread, or kNoTraceThread. */
    std::uint32_t thread = kNoTraceThread;
    /** Service id, or kNoTraceService (shown on begin/decision/end). */
    std::uint16_t service = kNoTraceService;
    /** AState hash (begin/lookup events). */
    std::uint64_t astate = 0;
    /** Predicted run length (lookup/decision). */
    InstCount predicted = 0;
    /** Actual run length: true length at begin, executed at end. */
    InstCount actual = 0;
    /** Threshold N in force (lookup/epoch) or the new N (nswitch). */
    InstCount threshold = 0;
    /** Previous N (nswitch only). */
    InstCount thresholdBefore = 0;
    /** Retired-instruction stamp (epoch/measure events). */
    InstCount instruction = 0;
    /** Cycles: decision cost, one-way migration, or queue wait. */
    Cycle latency = 0;
    /** Queue depth after enqueue, or controller round count. */
    std::uint64_t depth = 0;
    /** Predictor confidence counter value (lookup only). */
    std::uint8_t confidence = 0;
    /** Decision outcome / whether an ended invocation was off-loaded. */
    bool offload = false;
    /** Prediction came from the global fallback. */
    bool fromGlobal = false;
    /** Predictor table hit. */
    bool tableHit = false;
    /** A predictor was consulted for this decision. */
    bool predictorUsed = false;
    /** Migration direction: true = user core -> OS core. */
    bool toOs = false;
    /** Controller feedback value / warmup privileged fraction. */
    double feedback = 0.0;
    /** Request id (request events only). */
    std::uint64_t requestId = 0;
    /** Issuing tenant (request events only). */
    std::uint32_t tenant = 0;
    /**
     * OS-core queue the event concerns (admitting/receiving queue for
     * steal and spill), or kNoTraceQueue. A trace sink sees the
     * sentinel when there is a single queue, so such traces keep the
     * legacy single-OS-core format.
     */
    std::uint32_t queue = kNoTraceQueue;
    /** Queue a steal/spill moved the request away from. */
    std::uint32_t queueFrom = kNoTraceQueue;
    /** Span segment start where it is after `cycle` (decision cost). */
    Cycle start = 0;
    /** Cycles a user burst, inline OS service or OS-core service ran. */
    Cycle cycles = 0;
    /** The measured region was open at emission. */
    bool measuring = false;
};

/** Serialize one event as a single-line JSON object (no newline). */
std::string traceEventJson(const TraceEvent &event);

/** Destination of trace events (every kind but the span-only ones). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Record one event, cycle as stamped by the emitter. */
    void
    emit(const TraceEvent &event)
    {
        ++emittedCount;
        record(event);
    }

    /** Events emitted into this sink. */
    std::uint64_t emitted() const { return emittedCount; }

  protected:
    /** Store or stream one event. */
    virtual void record(const TraceEvent &event) = 0;

  private:
    std::uint64_t emittedCount = 0;
};

/**
 * In-memory sink for tests and replay verification; keeps every event.
 */
class MemoryTraceSink : public TraceSink
{
  public:
    /** Recorded events, oldest first. */
    const std::vector<TraceEvent> &events() const { return recorded; }

    /** Serialize the recorded events, one JSON line each. */
    std::vector<std::string> lines() const;

  protected:
    void record(const TraceEvent &event) override;

  private:
    std::vector<TraceEvent> recorded;
};

/**
 * Streaming JSONL writer: one header line (supplied by the caller,
 * typically via traceHeaderJson() in system/trace_capture.hh)
 * followed by one line per event.
 *
 * Lines accumulate in an in-memory buffer that is written out in
 * kBufferBytes-sized chunks through ArtifactFile: a busy trace emits
 * tens of events per invocation, and paying a write per line made
 * `--trace` runs measurably slower than untraced ones. The buffer is
 * drained on overflow, on flush(), and at destruction; the bytes are
 * an unbuffered writer's.
 */
class JsonlTraceSink : public TraceSink
{
  public:
    /** Buffered bytes before the sink writes a chunk to the file. */
    static constexpr std::size_t kBufferBytes = 64 * 1024;

    /**
     * @param path Output file, truncated.
     * @param header_line Complete header JSON object (no newline); may
     *        be empty to omit the header.
     */
    JsonlTraceSink(const std::string &path,
                   const std::string &header_line);

    ~JsonlTraceSink() override { flush(); }

    /**
     * False once the open or a chunk's write (flush() writes the last)
     * failed; the owner checks it and reports.
     */
    bool ok() const { return out.ok(); }

    /** Write the buffered lines to the file. */
    void flush();

  protected:
    void record(const TraceEvent &event) override;

  private:
    ArtifactFile out;
    std::string buffer;
};

} // namespace oscar

#endif // OSCAR_SIM_TRACE_HH_
