/**
 * @file
 * The simulated system: user cores running workload threads, an
 * optional dedicated OS core, the coherent memory hierarchy, the
 * off-load decision machinery, and the event-driven execution loop
 * that ties them together.
 */

#ifndef OSCAR_SYSTEM_SYSTEM_HH_
#define OSCAR_SYSTEM_SYSTEM_HH_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/offload_policy.hh"
#include "core/predictor_stats.hh"
#include "core/run_length_predictor.hh"
#include "core/threshold_controller.hh"
#include "cpu/arch_state.hh"
#include "cpu/core.hh"
#include "cpu/exec_engine.hh"
#include "mem/memory_system.hh"
#include "os/interrupts.hh"
#include "os/invocation.hh"
#include "os/numa_topology.hh"
#include "os/os_core_queue.hh"
#include "os/os_queue_set.hh"
#include "os/os_service.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "system/stream_tape.hh"
#include "system/system_config.hh"
#include "workload/address_space.hh"
#include "workload/request_stream.hh"
#include "workload/workload.hh"

namespace oscar
{

class MetricRegistry;
class TraceSink;
struct TraceEvent;

/** One (instruction, N) point of the dynamic-N trajectory. */
struct ThresholdSample
{
    /** Measured instructions retired when the sample was taken. */
    InstCount instruction = 0;
    /** N in force from this point on. */
    InstCount threshold = 0;
};

/**
 * One OS-core queue's measured-region outcome (K per run).
 */
struct OsQueueResult
{
    /** Queue index among the K OS-core queues. */
    std::uint32_t queue = 0;
    /** Core id of the queue's OS core. */
    CoreId core = 0;
    /** NUMA node the OS core lives on. */
    unsigned node = 0;
    /** Requests that started service on this queue's core. */
    std::uint64_t admitted = 0;
    /** Requests this queue's core stole from peers. */
    std::uint64_t stealsIn = 0;
    /** Requests peers stole out of this queue. */
    std::uint64_t stealsOut = 0;
    /** Arrivals that overflowed into this queue. */
    std::uint64_t spillsIn = 0;
    /** Arrivals that overflowed away from this queue. */
    std::uint64_t spillsOut = 0;
    /** Busy fraction of the queue's OS core. */
    double utilization = 0.0;
    /** Cycles requests admitted here waited before starting. */
    RunningStat queueDelay;
    /** The same waits as a mergeable histogram: per-queue histograms
     *  pool bucket-exactly into the system-wide wait distribution. */
    LatencyHistogram wait;
};

/**
 * Everything a run produced, measured over the post-warmup region.
 */
struct SimResults
{
    std::string workload;
    std::string policy;

    /** Cycles from measurement start to the last thread's quota. */
    Cycle makespan = 0;
    /** Instructions (user + OS) retired in the measured region. */
    InstCount retired = 0;
    /** retired / makespan — the paper's throughput metric. */
    double throughput = 0.0;
    /** Fraction of measured instructions retired in privileged mode. */
    double privFraction = 0.0;

    /** Mean L1D, L1I and L2 hit rates across user cores. */
    double userL1dHitRate = 0.0;
    double userL1iHitRate = 0.0;
    double userL2HitRate = 0.0;
    /** OS core L2 hit rate (0 without an OS core). */
    double osL2HitRate = 0.0;
    /** Average across all cores — the dynamic-N feedback metric. */
    double combinedL2HitRate = 0.0;

    /** OS invocations in the measured region. */
    std::uint64_t invocations = 0;
    /** Of which were migrated to the OS core. */
    std::uint64_t offloaded = 0;
    /** offloaded / invocations. */
    double offloadFraction = 0.0;
    /** Mean observed OS run length (instructions). */
    double meanInvocationLength = 0.0;

    /** Busy fraction of the OS core(s), averaged (Table III metric). */
    double osCoreUtilization = 0.0;
    /** Mean cycles off-loads waited for an OS core (Section V-C). */
    double meanQueueDelay = 0.0;
    /** Largest observed queue delay. */
    double maxQueueDelay = 0.0;

    // --- Multi-OS-core NUMA topology ---------------------------------
    /** Per-queue outcomes; one entry per OS core when offload is on. */
    std::vector<OsQueueResult> osQueues;
    /** Off-load + return migrations that stayed on one node. */
    std::uint64_t numaMigrationsIntra = 0;
    /** Migrations (incl. steal/spill transfers) that crossed nodes. */
    std::uint64_t numaMigrationsInter = 0;
    /** Requests moved by work stealing. */
    std::uint64_t steals = 0;
    /** Arrivals that overflowed between queues. */
    std::uint64_t spills = 0;

    /** Cycles burned in decision code across user cores. */
    Cycle decisionCycles = 0;
    /** Cycles burned migrating threads. */
    Cycle migrationCycles = 0;
    /** Cycles threads waited in the OS-core queue. */
    Cycle queueWaitCycles = 0;

    /** Coherence traffic: cache-to-cache transfers (all cores). */
    std::uint64_t c2cTransfers = 0;
    /** Coherence traffic: invalidations received (all cores). */
    std::uint64_t invalidations = 0;

    /** Predictor accuracy, merged across user cores (DI/HI only). */
    PredictorStats accuracy;

    /** N in force when the run ended. */
    InstCount finalThreshold = 0;
    /** Times the dynamic controller changed N. */
    std::uint64_t thresholdSwitches = 0;
    /**
     * N at measurement start and after every controller epoch, in
     * retirement order (dynamic-N runs only) — the threshold
     * trajectory exported to sweep reports.
     */
    std::vector<ThresholdSample> thresholdTrajectory;

    /** Privileged fraction observed during warmup (controller input). */
    double warmupPrivFraction = 0.0;

    /** Thresholds used by the tail accounting below. */
    static constexpr InstCount kTailThresholds[4] = {100, 1000, 5000,
                                                     10000};
    /**
     * Share of *measured instructions* retired inside OS invocations
     * longer than each kTailThresholds entry — the upper bound on the
     * Table III OS-core utilization at that N.
     */
    double osShareAbove[4] = {0.0, 0.0, 0.0, 0.0};

    /** Share of total instructions for invocations above a given N. */
    double osShareAboveN(InstCount n) const;

    /** Measured invocation count per service. */
    std::array<std::uint64_t, kNumServices> invocationsByService{};
    /** Measured off-load count per service. */
    std::array<std::uint64_t, kNumServices> offloadsByService{};

    /**
     * Off-loaded / total invocations as a mergeable counter pair —
     * the distribution-preserving form of offloadFraction for sweep
     * aggregation (pooled counts, not averaged ratios).
     */
    RatioStat offloadRatio;

    // --- Request serving (set when SystemConfig::serving is) ---------
    /** True when the run was driven by the request front-end. */
    bool servingEnabled = false;
    /** Requests completed inside the measured region. */
    std::uint64_t requestsCompleted = 0;
    /** Requests that arrived inside the measured region. */
    std::uint64_t requestsOffered = 0;
    /** Completed requests per 1,000 cycles of measured makespan. */
    double requestThroughput = 0.0;
    /** End-to-end request latency in cycles (queueing + service +
     *  migration), measured region, mergeable across points. */
    LatencyHistogram requestLatency;
    /** Cycles requests waited for a server thread before starting. */
    RunningStat requestDispatchWait;
    /**
     * Per-request span aggregates (see sim/span.hh); null unless a
     * SpanRecorder was attached. Shared so copying SimResults stays
     * cheap; replica merging deep-copies before folding.
     */
    std::shared_ptr<SpanResults> spans;
};

namespace detail
{

/**
 * The plain simulated state of a System: everything a snapshot takes
 * over as it is. System inherits it privately, and its clone copies it
 * with this struct's one defaulted copy, so a member added here is
 * cloned without further code. What a copy must re-point or reset (a
 * pointer into its owner, a workload bound to an address space,
 * predictors and policies, instrumentation) belongs to System itself.
 */
struct SystemState
{
    /** Validate `config` and build the cold machine it describes. */
    explicit SystemState(const SystemConfig &config);
    SystemState(const SystemState &) = default;

    /** Lifetime event counters owned by the System (never reset). */
    struct Counters
    {
        InstCount retiredUser = 0;
        InstCount retiredOs = 0;
        std::uint64_t invocations = 0;
        std::uint64_t offloads = 0;
        std::array<std::uint64_t, kNumServices> invocationsByService{};
        std::array<std::uint64_t, kNumServices> offloadsByService{};
        /** Migrations (incl. steal/spill transfers) within a node. */
        std::uint64_t migIntra = 0;
        /** Migrations that crossed nodes. */
        std::uint64_t migInter = 0;
        std::uint64_t requestsOffered = 0;
        std::uint64_t requestsCompleted = 0;

        /** Events counted since `mark`, an earlier copy. */
        Counters operator-(const Counters &mark) const;
    };

    /**
     * Copy of every lifetime counter — the System's own, each core's
     * cache statistics and cycle breakdown, each OS-core queue's
     * counts — taken when the measured region starts. Results are
     * lifetime minus this mark.
     */
    struct Mark
    {
        Counters system;
        std::vector<CoreMemStats> mem;
        std::vector<CycleBreakdown> cycles;
        std::vector<OsQueueCounters> queues;
    };

    SystemConfig cfg;
    /**
     * Shared (immutable) between a system and its clones, so the
     * OsService pointers inside in-flight OsInvocations — and the
     * references held by workloads and the interrupt source — stay
     * valid across snapshots.
     */
    std::shared_ptr<const ServiceTable> services;
    AddressSpace space;
    MemorySystem mem;
    /** Copied without its handler; the owner installs its own. */
    EventQueue events;
    InterruptSource interrupts;
    ThresholdController controller;
    StaticThreshold staticThreshold;
    Topology topo;
    /** Each core's lifetime cycle accounting, by core id. */
    std::vector<CycleBreakdown> cores;
    ServiceProfile profile; ///< filled continuously; used for SI profiling

    /** Lifetime counters; the registry polls these. */
    Counters counts;
    /** counts (and the components' counters) at measurement start. */
    Mark mark;

    // Phase machinery.
    /** beginRun() has seeded the event queue. */
    bool started = false;
    bool measuring = false;
    double warmupPrivFraction = 0.0;
    Cycle measureStart = 0;
    unsigned finishedThreads = 0;
    InstCount nextEpochBoundary = 0;
    InstCount windowStartInstr = 0;
    Cycle windowStartCycle = 0;
    std::vector<ThresholdSample> thresholdTrajectory;

    // Measured-region invocation-length distribution.
    RunningStat invocationLength;
    InstCount osInstrAboveTail[4] = {0, 0, 0, 0};

    // Serving-mode state (empty / unused in classic segment mode).
    std::optional<RequestStream> requests;
    /** Per-thread dispatch queues. */
    std::vector<std::deque<Request>> requestQueues;
    /** Open loop: the committed arrival the next event delivers. */
    Request pendingArrival;
    LatencyHistogram requestLatency;
    RunningStat requestDispatchWait;
    bool servingDone = false;
    Cycle servingEndCycle = 0;
};

} // namespace detail

/**
 * One simulated CMP running one benchmark.
 */
class System : private detail::SystemState
{
  public:
    /** Build the system; the configuration is validated here. */
    explicit System(const SystemConfig &config);
    ~System();

    System &operator=(const System &) = delete;

    /** Run warmup + measurement and return the results. */
    SimResults run();

    /**
     * Run warmup only: advance to the first event boundary after the
     * warmup-to-measurement transition, then stop. The system is then
     * a warm snapshot positioned at measurement start — clone() it
     * (cheaply, many times) and drive each clone to completion with
     * resumeRun(). Works in both segment and serving mode.
     */
    void runToMeasurementStart();

    /**
     * Continue a system stopped at measurement start to completion
     * and return the results. resumeRun() on a clone is exactly the
     * continuation the original would have executed: results and
     * traces are byte-identical to an uninterrupted run().
     */
    SimResults resumeRun();

    /**
     * Deep-copy the full simulation state: caches and directory, the
     * event queue (payload events only — asserted), per-thread RNG
     * streams, workload generator state, predictors, policy state,
     * queue occupancy, and all phase/statistics machinery. Trace
     * sinks and metric registries are NOT carried over; the clone
     * starts uninstrumented (attach fresh ones if needed). The clone
     * and the original then evolve independently and deterministically:
     * resuming either produces the stream the original would have.
     */
    std::unique_ptr<System> clone() const;

    /**
     * Re-aim a warmed system (stopped at measurement start) at a
     * different measurement configuration: adopts the new config,
     * rebuilds every thread's policy objects (fresh predictors), reset
     * dynamic-N controller, and re-enters the measured region at the
     * current cycle with all measured statistics zeroed. Only fields
     * that do not affect the warm prefix may differ (policy, predictor
     * organization, thresholds, decision costs, measurement horizon);
     * the prefix-defining fields are asserted equal, and the system
     * must carry no metric registry (its polls would outlive the
     * replaced policies). This is the fork step of the sweep fast
     * path: one warm snapshot, K cheap clones, each reconfigured to
     * its own policy point.
     */
    void reconfigureForMeasurement(const SystemConfig &config);

    /**
     * Attach the tapes `plan` names (see system/stream_tape.hh); an
     * empty plan attaches nothing. Call once, at measurement start.
     * Recorded tapes are sealed when resumeRun() reaches the horizon.
     * A replayed stream tape supplies tokens, interrupt extensions and
     * references, a replayed stall tape each segment's stall and the
     * final cache statistics; the results are byte-identical to a live
     * run's, within the recorded horizon. Fatal unless the plan obeys
     * streamTapeable() and stallReplayable(), the stream tape has this
     * system's sweepWarmupKey(), and each tape to record is empty and
     * each to replay sealed. A replaying system cannot be cloned.
     */
    void attachTapes(const TapePlan &plan);

    /**
     * Attach an invocation-level trace recorder (see sim/trace.hh).
     *
     * Must be called before run(). The system is the trace's only
     * emitter: it records every event, including predictor lookups,
     * OS-core queue admissions and N switches, stamped with the
     * current cycle. Null detaches (the default).
     */
    void setTraceSink(TraceSink *sink);

    /**
     * Attach a metric registry (see sim/metrics.hh).
     *
     * Must be called at most once, before run(). Registers every
     * layer's metrics — memory hierarchy, predictors, dynamic-N
     * controller, OS-core queue, event queue, system-level counters,
     * process-wide log counts — and drives the registry's periodic
     * sampler from instruction retirement. The registry must outlive
     * this system, whose destructor freezes every series at its final
     * value. Metrics never feed back into simulation, so
     * attaching one leaves traces and results byte-identical.
     */
    void setMetricRegistry(MetricRegistry *registry);

    /**
     * Attach a per-request span recorder (see sim/span.hh).
     *
     * Serving mode only; must be called before run(). The recorder
     * reads every event record the system builds, the ones a trace
     * sink reads included, and turns each phase a request passes
     * through — dispatch wait, user execution, the offload decision,
     * migrations, queueing, steals/spills, OS execution — into a span
     * segment; per-phase totals fold into the recorder's histograms
     * at request completion.
     * Spans never feed back into simulation: an attached recorder
     * leaves results and traces byte-identical to a detached run.
     * Null detaches (the default).
     */
    void setSpanRecorder(SpanRecorder *recorder);

    /** The configuration in force. */
    const SystemConfig &config() const { return cfg; }

    /** Memory hierarchy (inspection). */
    const MemorySystem &memory() const { return mem; }

    /**
     * One core's cache statistics over the measured region: its
     * lifetime MemorySystem::stats() minus the copy taken at
     * measurement start — the view SimResults' hit rates are built
     * from. Before measurement starts it covers the whole run so far.
     * A stall replay reports its record's final statistics instead.
     */
    CoreMemStats measuredMemStats(CoreId core) const;

    /** One core's cycle breakdown over the measured region. */
    CycleBreakdown measuredCycles(CoreId core) const;

    /** Dynamic-N controller (inspection). */
    const ThresholdController &thresholdController() const
    {
        return controller;
    }

    /** The queue set (inspection). */
    const OsQueueSet &osQueues() const { return queues; }

    /** The resolved core→node topology (inspection). */
    const Topology &topology() const { return topo; }

    /** Off-line profile collected when running with a Baseline policy. */
    const ServiceProfile &collectedProfile() const { return profile; }

  private:
    /** Snapshot copy backing clone(); see clone() for the contract. */
    System(const System &other);

    /** A thread's plain state: a snapshot copies it as it is. */
    struct ThreadState
    {
        std::uint32_t id = 0;
        CoreId core = 0;
        ArchState arch;
        Rng rng;

        InstCount measuredRetired = 0;
        bool quotaReached = false;
        Cycle finishCycle = 0;

        /** In-flight off-loaded invocation. */
        OsInvocation pendingInv;
        OffloadDecision pendingDecision;
        Cycle offloadArrival = 0;
        /** Queue the in-flight off-load is bound for. */
        unsigned pendingQueue = 0;
        /** The off-load already overflowed once (spills don't chain). */
        bool spilled = false;
        /** OS core executing the in-flight off-load. */
        CoreId servingOsCore = 0;

        // --- Serving mode --------------------------------------------
        /** The request in service on this thread. */
        Request currentRequest;
        /** OS-invocation segments left before the request completes. */
        std::uint32_t segmentsLeft = 0;
        /** A request is in service. */
        bool servingRequest = false;
        /** No request in service and none queued; a dispatch wakes. */
        bool idle = false;
    };

    /** A thread: its plain state plus what a snapshot must rebuild. */
    struct Thread : ThreadState
    {
        /** Bound to its system's address space and pools. */
        std::unique_ptr<Workload> workload;
        std::unique_ptr<RunLengthPredictor> predictor;
        std::unique_ptr<OffloadPolicy> policy;
        PredictivePolicy *predictive = nullptr; ///< non-owning view
    };

    /**
     * Discriminators of the payload events System schedules. Events
     * are plain data, so the EventQueue copies with the rest of a
     * snapshot (see EventQueue's copy ctor); the trampoline below
     * decodes {kind, a, b} into the method call each event stands for.
     */
    enum class EventKind : std::uint32_t
    {
        ThreadStep,     ///< a = tid
        OsArrival,      ///< a = tid
        OsComplete,     ///< a = tid, b = executed length
        StealGo,        ///< a = stolen tid, b = thief queue
        ArrivalDeliver, ///< (no operands; delivers pendingArrival)
        ClientIssue,    ///< a = client
    };

    /** Static hook handed to EventQueue::setPayloadHandler. */
    static void eventTrampoline(void *ctx, const EventPayload &payload,
                                Cycle now);

    /** Decode and execute one payload event. */
    void dispatchEvent(const EventPayload &payload, Cycle now);

    /** Advance one thread by one workload token. */
    void threadStep(std::uint32_t tid);

    /** Process one OS invocation (decide, execute inline or off-load). */
    void handleInvocation(std::uint32_t tid, const OsInvocation &inv);

    /** The off-loaded request reached its queue (may spill once). */
    void osCoreArrival(std::uint32_t tid);

    /** OS core of queue `target` starts executing a request. */
    void startOsExecution(std::uint32_t tid, Cycle start,
                          unsigned target);

    /** An OS core finished a request. */
    void osCoreComplete(std::uint32_t tid, InstCount executed_length);

    /** Count one migration between two cores (NUMA accounting). */
    void countMigration(CoreId from, CoreId to);

    /** A trace sink or a span recorder reads event records. */
    bool probed() const { return trace != nullptr || spans != nullptr; }

    /**
     * Stamp `event` with the current cycle and measured-region flag,
     * hand it to the span recorder, and hand a traced kind to the
     * trace sink. Each event's record is built once, at one site whose
     * guard names its readers: `trace` for trace-only kinds, `spans`
     * for span-only ones, probed() for the kinds both read.
     */
    void emit(TraceEvent event);

    /**
     * Emit an N-switch record: the controller's incumbent moved from
     * `before` (or was initialized, when `before` equals it).
     */
    void traceThresholdChange(InstCount before);

    /** Queue `thief` went idle: steal from the deepest peer, if any. */
    void maybeSteal(unsigned thief, Cycle now);

    /** Charge retired instructions and drive phase/epoch machinery. */
    void retire(Thread &thread, InstCount count, bool privileged);

    /**
     * The thread's next token: read from the replayed tape, or drawn
     * from its workload (and appended to the recorded tape).
     */
    WorkloadToken nextToken(Thread &thread);

    /** True length of an invocation with interrupt extension applied. */
    InstCount extendedLength(const OsInvocation &inv);

    /**
     * Run one segment of the thread's stream on `core` and return the
     * cycles it took: the tape's references probed, or generated ones
     * (and recorded) when live.
     */
    Cycle executeSegment(Thread &thread, CoreId core, ExecContext ctx,
                         InstCount instructions,
                         const SegmentProfile &profile);

    /** Switch from warmup to the measured region. */
    void enterMeasurement();

    /**
     * Start the measured region at the current cycle: record the mark,
     * clear the distributions and predictor stats that cannot be
     * subtracted, and, under dynamic N, begin the threshold
     * controller. Shared by enterMeasurement() and
     * reconfigureForMeasurement().
     */
    void resetMeasuredRegion();

    /** Instructions (user + OS) retired over the whole run. */
    InstCount retiredTotal() const
    {
        return counts.retiredUser + counts.retiredOs;
    }

    /** Instructions (user + OS) retired since the mark. */
    InstCount measuredRetired() const
    {
        return retiredTotal() - mark.system.retiredUser -
               mark.system.retiredOs;
    }

    /** Requests completed since the mark. */
    std::uint64_t measuredRequestsCompleted() const
    {
        return counts.requestsCompleted - mark.system.requestsCompleted;
    }

    /** Schedule the next threadStep. */
    void scheduleThread(std::uint32_t tid, Cycle when);

    /** Build one thread's policy objects. */
    void buildPolicy(Thread &thread);

    /** Gather results after the run. */
    SimResults collectResults() const;

    /** Seed the event queue with the run's initial events. */
    void beginRun();

    /**
     * Drive the event loop to the run's horizon; with
     * stop_at_measurement_start, return at the first event boundary
     * inside the measured region instead.
     */
    void runLoop(bool stop_at_measurement_start);

    /** Final metrics sample + result collection. */
    SimResults finishRun();

    // --- Serving mode (see workload/request_stream.hh) ---------------
    /** True when the run is driven by the request front-end. */
    bool servingMode() const { return requests.has_value(); }

    /** Open loop: commit and schedule the next fleet arrival. */
    void scheduleNextArrival();

    /** Closed loop: schedule a client's next issue. */
    void scheduleClientIssue(std::uint32_t client, Cycle when);

    /** Server thread an arriving request is dispatched to. */
    std::uint32_t dispatchTarget(const Request &request) const;

    /** Enqueue a request on a thread, waking it when idle. */
    void dispatchRequest(std::uint32_t tid, const Request &request);

    /** Pop the next queued request into service; false when empty. */
    bool beginRequest(std::uint32_t tid, Cycle now);

    /** The request in service on a thread finished its last segment. */
    void completeRequest(std::uint32_t tid, Cycle now);

    /** The configured dynamic-N feedback value for the ending epoch. */
    double epochFeedback();

    /** Tail accounting for one completed invocation. */
    void recordInvocationLength(InstCount length);

    /** Re-pointed by the copy: it holds the controller's address. */
    DynamicThreshold dynamicThreshold;
    /** Re-pointed by the copy: it holds the topology's address. */
    OsQueueSet queues;
    /** Re-pointed by the copy: regions of the clone's address space. */
    OsPools pools;
    /** Workloads, predictors and policies are rebuilt by the copy. */
    std::vector<Thread> threads;

    // Instrumentation and tapes: a clone starts without them.
    TraceSink *trace = nullptr; ///< optional; null = tracing off
    SpanRecorder *spans = nullptr; ///< optional; null = spans off
    /** Tape this live run records into; null when not recording. */
    std::shared_ptr<StreamTape> tapeOut;
    /** Tape the run replays; null when the stream is generated. */
    std::shared_ptr<const StreamTape> tapeIn;
    StreamTape::Reader tapeReader;
    /** Stall record this run writes; null when not recording. */
    std::shared_ptr<StallTape> stallOut;
    /** Stall record the run reads; null when it probes. */
    std::shared_ptr<const StallTape> stallIn;
    StallTape::Reader stallReader;
    // Metrics (optional; null = metrics off).
    MetricRegistry *metrics = nullptr;
    /** Cached registry sampling interval; 0 = periodic sampling off. */
    InstCount metricsInterval = 0;
    /** Next total-retired instant to sample at. */
    InstCount nextMetricsSample = 0;

};

} // namespace oscar

#endif // OSCAR_SYSTEM_SYSTEM_HH_
