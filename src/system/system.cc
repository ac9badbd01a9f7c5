/**
 * @file
 * Implementation of the simulated system.
 */

#include "system/system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "system/experiment.hh"

namespace oscar
{

namespace
{

/** Apply feedback-dependent defaults to the controller config. */
ThresholdConfig
controllerConfig(const SystemConfig &config)
{
    ThresholdConfig tc = config.thresholdConfig;
    if (config.thresholdFeedback ==
        SystemConfig::ThresholdFeedback::WindowIpc) {
        tc.relativeImprovement = true;
    }
    return tc;
}

} // namespace

System::System(const SystemConfig &config)
    : cfg(config), services(std::make_shared<const ServiceTable>()),
      interrupts(cfg.interrupts, *services,
                 Rng(cfg.seed ^ 0xA5A5A5A5ULL)),
      controller(controllerConfig(config)),
      staticThreshold(cfg.staticThreshold),
      dynamicThreshold(controller)
{
    cfg.validate();
    events.setPayloadHandler(&System::eventTrampoline, this);

    // Offload-disabled systems still get a (trivial) topology so node
    // queries are always answerable; the configured one only matters
    // when OS cores exist.
    topo = Topology(cfg.userCores,
                    cfg.offloadEnabled ? cfg.topology : TopologyConfig{},
                    cfg.migrationOneWayCycles);
    queues.build(topo);

    WorkloadSpec spec = makeWorkloadSpec(cfg.workload);
    spec.osCouplingScale = cfg.osCouplingScale;
    pools = OsPools::build(space, *services, spec);

    mem = std::make_unique<MemorySystem>(cfg.totalCores(), cfg.geometry,
                                         cfg.timings);

    Rng root(cfg.seed);
    cores.reserve(cfg.totalCores());
    for (unsigned c = 0; c < cfg.userCores; ++c)
        cores.emplace_back(c, CoreRole::User);
    if (cfg.offloadEnabled) {
        for (unsigned k = 0; k < topo.osCoreCount(); ++k)
            cores.emplace_back(topo.osCoreId(k), CoreRole::Os);
    }

    threads.resize(cfg.userCores);
    for (unsigned t = 0; t < cfg.userCores; ++t) {
        Thread &thread = threads[t];
        thread.id = t;
        thread.core = t;
        thread.rng = root.fork();
        thread.workload = std::make_unique<Workload>(
            spec, *services, space, pools, cfg.geometry.l2.lineBytes);
        buildPolicy(thread);
    }
    // The all-zero mark: until measurement starts, "measured" views
    // cover the whole run.
    mark.mem.resize(cfg.totalCores());
    mark.cycles.resize(cores.size());
    mark.queues.resize(queues.size());
}

System::System(const System &other)
    : cfg(other.cfg), services(other.services), space(other.space),
      mem(std::make_unique<MemorySystem>(*other.mem)),
      events(other.events), interrupts(other.interrupts),
      controller(other.controller),
      staticThreshold(other.staticThreshold),
      dynamicThreshold(controller), // rebound to OUR controller
      topo(other.topo), cores(other.cores), profile(other.profile)
{
    // The copied EventQueue carries no handler; install ours.
    events.setPayloadHandler(&System::eventTrampoline, this);
    queues.cloneFrom(other.queues, topo);

    // Rebind every region pointer into our deep-copied address space.
    const RegionRemap remap(other.space, space);
    pools = other.pools.remapped(remap);

    threads.resize(other.threads.size());
    for (std::size_t i = 0; i < threads.size(); ++i) {
        Thread &thread = threads[i];
        const Thread &theirs = other.threads[i];
        thread.id = theirs.id;
        thread.core = theirs.core;
        thread.workload = theirs.workload->clone(*services, remap);
        thread.arch = theirs.arch;
        thread.rng = theirs.rng;
        if (theirs.predictor != nullptr)
            thread.predictor = theirs.predictor->clone();
        buildPolicy(thread);
        if (thread.predictive != nullptr &&
            theirs.predictive != nullptr) {
            thread.predictive->stats() = theirs.predictive->stats();
        }
        thread.measuredRetired = theirs.measuredRetired;
        thread.quotaReached = theirs.quotaReached;
        thread.finishCycle = theirs.finishCycle;
        // pendingInv's service pointer targets the shared table, so
        // it survives the copy verbatim.
        thread.pendingInv = theirs.pendingInv;
        thread.pendingDecision = theirs.pendingDecision;
        thread.offloadArrival = theirs.offloadArrival;
        thread.pendingQueue = theirs.pendingQueue;
        thread.spilled = theirs.spilled;
        thread.servingOsCore = theirs.servingOsCore;
        thread.currentRequest = theirs.currentRequest;
        thread.segmentsLeft = theirs.segmentsLeft;
        thread.servingRequest = theirs.servingRequest;
        thread.idle = theirs.idle;
    }

    // Phase machinery, lifetime counters and the measurement mark.
    counts = other.counts;
    mark = other.mark;
    started = other.started;
    measuring = other.measuring;
    warmupPrivFraction = other.warmupPrivFraction;
    measureStart = other.measureStart;
    finishedThreads = other.finishedThreads;
    nextEpochBoundary = other.nextEpochBoundary;
    windowStartInstr = other.windowStartInstr;
    windowStartCycle = other.windowStartCycle;
    thresholdTrajectory = other.thresholdTrajectory;
    invocationLength = other.invocationLength;
    for (std::size_t i = 0; i < 4; ++i)
        osInstrAboveTail[i] = other.osInstrAboveTail[i];

    // Serving-mode state.
    if (other.requests != nullptr)
        requests = std::make_unique<RequestStream>(*other.requests);
    requestQueues = other.requestQueues;
    pendingArrival = other.pendingArrival;
    requestLatency = other.requestLatency;
    requestDispatchWait = other.requestDispatchWait;
    servingDone = other.servingDone;
    servingEndCycle = other.servingEndCycle;

    // trace/metrics/spans pointers keep their null defaults: the clone
    // starts uninstrumented by contract.
}

std::unique_ptr<System>
System::clone() const
{
    if (tapeIn != nullptr) {
        oscar_fatal("cannot clone a system replaying a stream tape: its "
                    "workload generators have not advanced");
    }
    return std::unique_ptr<System>(new System(*this));
}

void
System::reconfigureForMeasurement(const SystemConfig &config)
{
    oscar_assert(started && measuring &&
                 "reconfigure requires a system stopped at "
                 "measurement start");
    // Policies are rebuilt below; a registry would poll the old ones.
    oscar_assert(metrics == nullptr &&
                 "reconfigure requires a system without a registry");
    // The warm prefix is only shareable across configurations that
    // agree on everything that shaped it; spot-check the load-bearing
    // fields. Policy/threshold/predictor/horizon fields may differ.
    oscar_assert(config.workload == cfg.workload);
    oscar_assert(config.seed == cfg.seed);
    oscar_assert(config.userCores == cfg.userCores);
    oscar_assert(config.offloadEnabled == cfg.offloadEnabled);
    oscar_assert(config.warmupInstructions == cfg.warmupInstructions);
    oscar_assert(config.osCouplingScale == cfg.osCouplingScale);
    oscar_assert((config.serving == nullptr) == (cfg.serving == nullptr));
    oscar_assert(config.serving == nullptr ||
                 config.serving->warmupRequests ==
                     cfg.serving->warmupRequests);
    oscar_assert(!cfg.offloadEnabled ||
                 (config.topology.osCores == cfg.topology.osCores &&
                  config.topology.numaNodes == cfg.topology.numaNodes &&
                  config.topology.placement == cfg.topology.placement &&
                  config.topology.dispatch == cfg.topology.dispatch));

    cfg = config;
    cfg.validate();
    // The topology bakes the one-way migration latency into its
    // distance maps, so rebuild it in place: same shape (asserted
    // above), possibly a different latency. Reassignment keeps the
    // object's address, so the queue set's topology pointer stays
    // valid.
    topo = Topology(cfg.userCores,
                    cfg.offloadEnabled ? cfg.topology : TopologyConfig{},
                    cfg.migrationOneWayCycles);
    staticThreshold = StaticThreshold(cfg.staticThreshold);
    controller = ThresholdController(controllerConfig(cfg));
    for (Thread &thread : threads) {
        thread.predictive = nullptr;
        thread.predictor.reset();
        thread.policy.reset();
        buildPolicy(thread);
    }

    // Re-enter the measured region at the current cycle, so the forked
    // run's measured region starts clean under the new policy.
    finishedThreads = 0;
    for (Thread &thread : threads) {
        thread.measuredRetired = 0;
        thread.quotaReached = false;
        thread.finishCycle = 0;
    }
    thresholdTrajectory.clear();
    resetMeasuredRegion();
    if (spans != nullptr)
        spans->reset();
}

void
System::checkTapeAttach(const StreamTape &tape) const
{
    if (cfg.userCores != 1 || cfg.serving != nullptr) {
        oscar_fatal("stream tapes need a single-thread segment-mode "
                    "system (this one has %u user cores%s)",
                    cfg.userCores,
                    cfg.serving != nullptr ? " and serves requests" : "");
    }
    if (!started || !measuring || measuredRetired() != 0) {
        oscar_fatal("a stream tape attaches only at measurement start");
    }
    if (tapeIn != nullptr || tapeOut != nullptr)
        oscar_fatal("a stream tape is already attached");
    if (tape.warmupKey() != sweepWarmupKey(cfg)) {
        oscar_fatal("stream tape of fork group '%s' does not fit this "
                    "system's group '%s'",
                    tape.warmupKey().c_str(),
                    sweepWarmupKey(cfg).c_str());
    }
}

void
System::recordStreamTape(std::shared_ptr<StreamTape> tape)
{
    oscar_assert(tape != nullptr);
    checkTapeAttach(*tape);
    if (tape->finished() || tape->tokenCount() != 0)
        oscar_fatal("stream tape recording needs an empty tape");
    tapeOut = std::move(tape);
}

void
System::replayStreamTape(std::shared_ptr<const StreamTape> tape)
{
    oscar_assert(tape != nullptr);
    checkTapeAttach(*tape);
    if (!tape->finished())
        oscar_fatal("stream tape replay needs a finished tape");
    tapeIn = std::move(tape);
    tapeReader = StreamTape::Reader(*tapeIn);
}

System::~System()
{
    // The registry polls this system's counters; keep it readable.
    if (metrics != nullptr)
        metrics->freeze();
}

void
System::setTraceSink(TraceSink *sink)
{
    trace = sink;
}

void
System::emitTrace(TraceEvent &event)
{
    event.cycle = events.now();
    trace->emit(event);
}

std::uint32_t
System::traceQueue(unsigned k) const
{
    return queues.size() > 1 ? k : kNoTraceQueue;
}

void
System::traceThresholdChange(InstCount before)
{
    TraceEvent event;
    event.kind = TraceEventKind::ThresholdChange;
    event.thresholdBefore = before;
    event.threshold = controller.incumbent();
    event.depth = controller.rounds();
    emitTrace(event);
}

void
System::setSpanRecorder(SpanRecorder *recorder)
{
    oscar_assert(!started && "attach the span recorder before run()");
    oscar_assert((recorder == nullptr || cfg.serving != nullptr) &&
                 "span recording requires serving mode");
    spans = recorder;
    if (spans != nullptr)
        spans->bind(threads.size(), cfg.seed);
}

void
System::setMetricRegistry(MetricRegistry *registry)
{
    oscar_assert(registry != nullptr && metrics == nullptr);
    // Counters are polled from their lifetime stores, so attaching
    // before the run keeps every series starting at zero.
    oscar_assert(!started && "attach the metric registry before run()");
    metrics = registry;

    registry->counterFn("sys.retired.user",
                        [this] { return counts.retiredUser; });
    registry->counterFn("sys.retired.os",
                        [this] { return counts.retiredOs; });
    registry->counterFn("sys.invocations",
                        [this] { return counts.invocations; });
    registry->counterFn("sys.offloads", [this] { return counts.offloads; });

    mem->registerMetrics(*registry);
    if (cfg.offloadEnabled) {
        queues.registerMetrics(*registry);
        registry->counterFn("numa.migrations.intra",
                            [this] { return counts.migIntra; });
        registry->counterFn("numa.migrations.inter",
                            [this] { return counts.migInter; });
        if (topo.config().dispatch == OsDispatchPolicy::WorkStealing) {
            // Each steal or spill lands on exactly one queue.
            registry->counterFn("numa.steals", [this] {
                std::uint64_t steals = 0;
                for (unsigned k = 0; k < queues.size(); ++k)
                    steals += queues.queue(k).counters().stealsIn;
                return steals;
            });
            registry->counterFn("numa.spills", [this] {
                std::uint64_t spills = 0;
                for (unsigned k = 0; k < queues.size(); ++k)
                    spills += queues.queue(k).counters().spillsIn;
                return spills;
            });
        }
    }
    if (cfg.dynamicThreshold)
        controller.registerMetrics(*registry);
    for (Thread &thread : threads) {
        if (thread.predictive != nullptr) {
            thread.predictive->registerMetrics(
                *registry, "pred.t" + std::to_string(thread.id));
        }
    }

    if (cfg.serving) {
        registry->counterFn("serving.offered",
                            [this] { return counts.requestsOffered; });
        registry->counterFn("serving.completed",
                            [this] { return counts.requestsCompleted; });
        registry->histogramFn("serving.latency", requestLatency);
        registry->gauge("serving.inflight", [this] {
            std::uint64_t inflight = 0;
            for (const auto &queued : requestQueues)
                inflight += queued.size();
            for (const Thread &thread : threads)
                inflight += thread.servingRequest ? 1 : 0;
            return static_cast<double>(inflight);
        });
    }

    registry->counterFn("events.scheduled",
                        [this] { return events.scheduledCount(); });
    registry->counterFn("events.fired",
                        [this] { return events.firedCount(); });
    registry->gauge("events.pending", [this] {
        return static_cast<double>(events.pendingCount());
    });
    registry->gauge("events.slots", [this] {
        return static_cast<double>(events.slotCount());
    });

    // Log counts are process-wide; export them relative to attach time
    // so earlier process activity (other runs, tests) cannot leak into
    // this run's artifact. Concurrent sweep workers still share the
    // underlying counters; runs normally emit no logs at all.
    const std::uint64_t warn_base = warnCount();
    const std::uint64_t inform_base = informCount();
    registry->counterFn("log.warn", [warn_base] {
        return warnCount() - warn_base;
    });
    registry->counterFn("log.inform", [inform_base] {
        return informCount() - inform_base;
    });

    metricsInterval = registry->sampleEvery();
    nextMetricsSample = metricsInterval;
}

void
System::buildPolicy(Thread &thread)
{
    switch (cfg.policy) {
      case PolicyKind::Baseline:
        thread.policy = std::make_unique<BaselinePolicy>();
        return;
      case PolicyKind::StaticInstrumentation:
        thread.policy = std::make_unique<StaticInstrumentationPolicy>(
            *cfg.siProfile, cfg.migrationOneWayCycles,
            cfg.siDecisionCost);
        return;
      case PolicyKind::DynamicInstrumentation:
      case PolicyKind::HardwarePredictor: {
        // The snapshot copy pre-seeds the predictor with the
        // original's trained clone; only build a cold one if absent.
        if (thread.predictor == nullptr)
            thread.predictor = makePredictor(cfg.predictor);
        const ThresholdProvider &provider =
            cfg.dynamicThreshold
                ? static_cast<const ThresholdProvider &>(dynamicThreshold)
                : static_cast<const ThresholdProvider &>(staticThreshold);
        const Cycle cost =
            cfg.policy == PolicyKind::DynamicInstrumentation
                ? cfg.diDecisionCost
                : cfg.hiDecisionCost;
        auto policy = std::make_unique<PredictivePolicy>(
            *thread.predictor, provider, cost, cfg.policy);
        thread.predictive = policy.get();
        thread.policy = std::move(policy);
        return;
      }
    }
    oscar_panic("unhandled policy kind");
}

void
System::eventTrampoline(void *ctx, const EventPayload &payload,
                        Cycle now)
{
    static_cast<System *>(ctx)->dispatchEvent(payload, now);
}

void
System::dispatchEvent(const EventPayload &payload, Cycle now)
{
    switch (static_cast<EventKind>(payload.kind)) {
      case EventKind::ThreadStep:
        threadStep(payload.a);
        return;
      case EventKind::OsArrival:
        osCoreArrival(payload.a);
        return;
      case EventKind::OsComplete:
        osCoreComplete(payload.a, static_cast<InstCount>(payload.b));
        return;
      case EventKind::StealGo:
        startOsExecution(payload.a, now,
                         static_cast<unsigned>(payload.b));
        return;
      case EventKind::ArrivalDeliver: {
        const Request request = pendingArrival;
        // Commit the successor first: dispatch can complete requests
        // transitively, and only one arrival is ever outstanding.
        scheduleNextArrival();
        dispatchRequest(dispatchTarget(request), request);
        return;
      }
      case EventKind::ClientIssue: {
        const Request request = requests->issueRequest(payload.a, now);
        dispatchRequest(payload.a % static_cast<std::uint32_t>(
                            threads.size()),
                        request);
        return;
      }
    }
    oscar_panic("unknown event kind %u", payload.kind);
}

void
System::scheduleThread(std::uint32_t tid, Cycle when)
{
    events.schedulePayload(
        when, EventPayload{
                  static_cast<std::uint32_t>(EventKind::ThreadStep),
                  tid, 0});
}

WorkloadToken
System::nextToken(Thread &thread)
{
    if (tapeIn != nullptr)
        return tapeReader.nextToken();
    WorkloadToken token = thread.workload->next(thread.rng, thread.arch);
    if (tapeOut != nullptr)
        tapeOut->recordToken(token);
    return token;
}

InstCount
System::extendedLength(const OsInvocation &inv)
{
    if (tapeIn != nullptr)
        return tapeReader.extendedLength();
    InstCount length = inv.trueLength;
    if (inv.service->interruptible && interrupts.enabled()) {
        // Approximate the occupancy window with a CPI of ~1.3.
        const Cycle window = static_cast<Cycle>(length) * 13 / 10;
        length += interrupts.preemptionExtension(window);
    }
    if (tapeOut != nullptr)
        tapeOut->recordExtendedLength(length);
    return length;
}

Cycle
System::executeSegment(Thread &thread, CoreId core, ExecContext ctx,
                       InstCount instructions,
                       const SegmentProfile &profile)
{
    // A segment costs one cycle per instruction plus its probes'
    // stalls, so a replay needs only the probes.
    if (tapeIn != nullptr)
        return instructions + tapeReader.replaySegment(*mem, core, ctx);
    if (tapeOut == nullptr) {
        return ExecEngine::execute(*mem, core, ctx, instructions, profile,
                                   thread.rng)
            .cycles;
    }
    struct RecordSink final : RefBlockSink
    {
        MemorySystem &mem;
        CoreId core;
        ExecContext ctx;
        StreamTape &tape;
        Cycle stall = 0;

        RecordSink(MemorySystem &m, CoreId c, ExecContext x,
                   StreamTape &t)
            : mem(m), core(c), ctx(x), tape(t)
        {
        }

        void
        consume(const std::uint64_t *refs, std::size_t count) override
        {
            stall += mem.accessBatch(core, ctx, refs, count);
            tape.recordRefs(refs, count);
        }
    } sink(*mem, core, ctx, *tapeOut);
    return ExecEngine::generate(instructions, profile, thread.rng, sink)
               .cycles +
           sink.stall;
}

double
SimResults::osShareAboveN(InstCount n) const
{
    for (std::size_t i = 0; i < 4; ++i) {
        if (kTailThresholds[i] == n)
            return osShareAbove[i];
    }
    oscar_panic("untracked tail threshold %llu",
                static_cast<unsigned long long>(n));
}

void
System::recordInvocationLength(InstCount length)
{
    if (!measuring)
        return;
    invocationLength.add(static_cast<double>(length));
    for (std::size_t i = 0; i < 4; ++i) {
        if (length > SimResults::kTailThresholds[i])
            osInstrAboveTail[i] += length;
    }
}

void
System::retire(Thread &thread, InstCount count, bool privileged)
{
    // Before the phase machinery, so a measurement mark taken below
    // already includes this retirement.
    (privileged ? counts.retiredOs : counts.retiredUser) += count;

    if (measuring) {
        thread.measuredRetired += count;
        const InstCount measured = measuredRetired();

        if (cfg.dynamicThreshold && measured >= nextEpochBoundary) {
            const double feedback = epochFeedback();
            const InstCount incumbent = controller.incumbent();
            const std::uint64_t switches = controller.switches();
            controller.onEpochEnd(feedback);
            if (trace != nullptr) {
                if (controller.switches() != switches)
                    traceThresholdChange(incumbent);
                TraceEvent event;
                event.kind = TraceEventKind::EpochEnd;
                event.instruction = measured;
                event.threshold = controller.currentThreshold();
                event.feedback = feedback;
                emitTrace(event);
            }
            thresholdTrajectory.push_back(
                {measured, controller.currentThreshold()});
            mem->resetWindow();
            windowStartInstr = measured;
            windowStartCycle = events.now();
            nextEpochBoundary = measured + controller.epochLength();
        }

        // Serving mode's horizon is completed requests, not a
        // per-thread instruction quota.
        if (!servingMode() && !thread.quotaReached &&
            thread.measuredRetired >= cfg.measureInstructions) {
            thread.quotaReached = true;
            thread.finishCycle = events.now();
            ++finishedThreads;
        }
    } else {
        const InstCount target =
            cfg.warmupInstructions * threads.size();
        if (!servingMode() && retiredTotal() >= target)
            enterMeasurement();
    }

    if (metrics != nullptr && metricsInterval != 0) {
        const InstCount total = retiredTotal();
        if (total >= nextMetricsSample) {
            metrics->takeSample(total, events.now());
            nextMetricsSample =
                (total / metricsInterval + 1) * metricsInterval;
        }
    }
}

void
System::enterMeasurement()
{
    measuring = true;
    // Everything retired so far was warmup.
    const InstCount warmup_retired = retiredTotal();
    warmupPrivFraction =
        warmup_retired
            ? static_cast<double>(counts.retiredOs) /
                  static_cast<double>(warmup_retired)
            : 0.0;

    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::MeasurementStart;
        event.instruction = warmup_retired;
        event.feedback = warmupPrivFraction;
        emitTrace(event);
    }

    resetMeasuredRegion();

    // Registry mark row: polled at the same instant as the counter
    // mark above, so "final minus this row" equals the measured
    // region SimResults reports. A periodic row at this instant (a
    // serving run's last warm-up retirement) predates the mark and
    // the histogram restart, so it is re-read.
    if (metrics != nullptr) {
        const std::size_t row = metrics->takeSample(
            warmup_retired, events.now(), /*refresh_equal=*/true);
        metrics->setMeasurementStartSample(row);
    }
}

void
System::resetMeasuredRegion()
{
    measureStart = events.now();
    mark.system = counts;
    for (CoreId c = 0; c < mark.mem.size(); ++c)
        mark.mem[c] = mem->stats(c);
    for (std::size_t c = 0; c < cores.size(); ++c)
        mark.cycles[c] = cores[c].cycles();
    for (unsigned k = 0; k < queues.size(); ++k)
        mark.queues[k] = queues.queue(k).counters();

    // What cannot be subtracted is cleared instead.
    mem->resetWindow();
    queues.resetStats();
    for (Thread &thread : threads) {
        if (thread.predictive != nullptr)
            thread.predictive->resetStats();
    }
    invocationLength.reset();
    for (InstCount &tail : osInstrAboveTail)
        tail = 0;
    requestLatency.reset();
    requestDispatchWait.reset();

    if (cfg.dynamicThreshold) {
        controller.begin(warmupPrivFraction);
        if (trace != nullptr)
            traceThresholdChange(controller.incumbent());
        thresholdTrajectory.push_back({0, controller.currentThreshold()});
        nextEpochBoundary = controller.epochLength();
        windowStartInstr = 0;
        windowStartCycle = events.now();
    }
}

double
System::epochFeedback()
{
    if (cfg.thresholdFeedback ==
        SystemConfig::ThresholdFeedback::L2HitRate) {
        return mem->windowL2HitRate();
    }
    const Cycle cycles = events.now() - windowStartCycle;
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(measuredRetired() - windowStartInstr) /
           static_cast<double>(cycles);
}

void
System::threadStep(std::uint32_t tid)
{
    Thread &thread = threads[tid];
    if (servingMode()) {
        if (servingDone)
            return;
        // A step lands here (a) woken by a dispatch, (b) resuming
        // after a token's execution, or (c) after the final segment
        // of a request — whose completion cycle is exactly now.
        if (thread.servingRequest && thread.segmentsLeft == 0) {
            completeRequest(tid, events.now());
            if (servingDone)
                return;
        }
        if (!thread.servingRequest &&
            !beginRequest(tid, events.now())) {
            thread.idle = true;
            return;
        }
    } else if (finishedThreads >= threads.size()) {
        return;
    }

    const WorkloadToken token = nextToken(thread);
    const Cycle now = events.now();

    if (token.kind == TokenKind::UserBurst) {
        const Cycle cycles = executeSegment(
            thread, thread.core, ExecContext::User, token.burstLength,
            thread.workload->userProfile());
        cores[thread.core].cycles().user += cycles;
        cores[thread.core].retireUser(token.burstLength);
        retire(thread, token.burstLength, false);
        if (spans != nullptr)
            spans->segment(tid, SpanPhase::User, now, cycles);
        scheduleThread(tid, now + cycles);
        return;
    }

    handleInvocation(tid, token.invocation);
}

void
System::handleInvocation(std::uint32_t tid, const OsInvocation &inv)
{
    Thread &thread = threads[tid];
    const Cycle now = events.now();

    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::InvocationBegin;
        event.thread = tid;
        event.service = static_cast<std::uint16_t>(inv.service->id);
        event.astate = inv.astate();
        event.actual = inv.trueLength;
        emitTrace(event);
    }

    const OffloadDecision decision = thread.policy->decide(inv);
    if (trace != nullptr && decision.predictorUsed) {
        TraceEvent event;
        event.kind = TraceEventKind::PredictorLookup;
        event.thread = tid;
        event.astate = inv.astate();
        event.predicted = decision.predictedLength;
        event.confidence = decision.prediction.confidence;
        event.fromGlobal = decision.prediction.fromGlobal;
        event.tableHit = decision.prediction.tableHit;
        event.threshold = decision.threshold;
        emitTrace(event);
    }
    cores[thread.core].cycles().decision += decision.cost;
    if (spans != nullptr) {
        spans->segment(tid, SpanPhase::Decision, now, decision.cost,
                       static_cast<std::uint16_t>(inv.service->id));
    }
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::Decision;
        event.thread = tid;
        event.service = static_cast<std::uint16_t>(inv.service->id);
        event.offload = cfg.offloadEnabled && decision.offload;
        event.latency = decision.cost;
        event.predicted = decision.predictedLength;
        event.predictorUsed = decision.predictorUsed;
        emitTrace(event);
    }
    ++counts.invocations;
    ++counts.invocationsByService[static_cast<std::size_t>(
        inv.service->id)];

    if (!cfg.offloadEnabled || !decision.offload) {
        // Execute inline on the invoking core.
        const InstCount length = extendedLength(inv);
        const Cycle cycles = executeSegment(
            thread, thread.core, ExecContext::Os, length,
            thread.workload->serviceProfile(inv.service->id));
        cores[thread.core].cycles().os += cycles;
        cores[thread.core].retireOs(length);
        thread.policy->observe(inv, decision, length);
        profile.observe(inv.service->id, length);
        recordInvocationLength(length);
        if (trace != nullptr) {
            TraceEvent event;
            event.kind = TraceEventKind::InvocationEnd;
            event.thread = tid;
            event.service = static_cast<std::uint16_t>(inv.service->id);
            event.actual = length;
            event.offload = false;
            emitTrace(event);
        }
        retire(thread, length, true);
        if (spans != nullptr) {
            spans->segment(tid, SpanPhase::OsInline,
                           now + decision.cost, cycles,
                           static_cast<std::uint16_t>(inv.service->id));
        }
        if (servingMode()) {
            oscar_assert(thread.servingRequest &&
                         thread.segmentsLeft > 0);
            --thread.segmentsLeft;
        }
        scheduleThread(tid, now + decision.cost + cycles);
        return;
    }

    // Off-load: migrate to the dispatched OS core.
    ++counts.offloads;
    ++counts.offloadsByService[static_cast<std::size_t>(inv.service->id)];
    const unsigned target = queues.dispatchQueue(thread.core);
    const CoreId os_core = topo.osCoreId(target);
    const Cycle one_way = topo.migrationOneWay(thread.core, os_core);
    cores[thread.core].cycles().migration += one_way;
    countMigration(thread.core, os_core);
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::Migration;
        event.thread = tid;
        event.toOs = true;
        event.latency = one_way;
        event.queue = traceQueue(target);
        emitTrace(event);
    }
    if (spans != nullptr) {
        spans->segment(tid, SpanPhase::MigrationOut,
                       now + decision.cost, one_way,
                       static_cast<std::uint16_t>(inv.service->id),
                       target);
    }
    thread.pendingInv = inv;
    thread.pendingDecision = decision;
    thread.pendingQueue = target;
    thread.spilled = false;
    thread.offloadArrival = now + decision.cost + one_way;
    events.schedulePayload(
        thread.offloadArrival,
        EventPayload{static_cast<std::uint32_t>(EventKind::OsArrival),
                     tid, 0});
}

void
System::osCoreArrival(std::uint32_t tid)
{
    Thread &thread = threads[tid];
    const Cycle now = events.now();
    const unsigned home = thread.pendingQueue;

    // Work-stealing overflow: an arrival finding its home queue deep
    // spills (once) to a strictly less-loaded peer, paying the OS-to-
    // OS-core transfer before queueing there.
    if (!thread.spilled) {
        const unsigned spill = queues.spillTarget(home);
        if (spill != kNoQueue) {
            thread.spilled = true;
            const CoreId from_core = topo.osCoreId(home);
            const CoreId to_core = topo.osCoreId(spill);
            const Cycle transfer =
                topo.migrationOneWay(from_core, to_core);
            cores[thread.core].cycles().migration += transfer;
            countMigration(from_core, to_core);
            queues.queue(home).countSpillOut();
            queues.queue(spill).countSpillIn();
            if (trace != nullptr) {
                TraceEvent event;
                event.kind = TraceEventKind::Spill;
                event.thread = tid;
                event.queueFrom = home;
                event.queue = spill;
                event.depth = static_cast<std::uint32_t>(
                    queues.queue(home).depth());
                event.latency = transfer;
                emitTrace(event);
            }
            if (spans != nullptr) {
                spans->segment(tid, SpanPhase::Spill, now, transfer,
                               static_cast<std::uint16_t>(
                                   thread.pendingInv.service->id),
                               spill);
            }
            thread.pendingQueue = spill;
            thread.offloadArrival = now + transfer;
            events.schedulePayload(
                thread.offloadArrival,
                EventPayload{
                    static_cast<std::uint32_t>(EventKind::OsArrival),
                    tid, 0});
            return;
        }
    }

    const OffloadRequest request{tid, now};
    const bool admitted = queues.queue(home).offer(request, now);
    if (trace != nullptr) {
        // Depth after the offer: 0 when service starts at once.
        TraceEvent event;
        event.kind = TraceEventKind::QueueEnter;
        event.thread = tid;
        event.depth = queues.queue(home).depth();
        event.queue = traceQueue(home);
        emitTrace(event);
    }
    if (admitted) {
        startOsExecution(tid, now, home);
    } else {
        // The request queued behind a busy core; a completely idle
        // peer (which, never completing, would otherwise never get a
        // chance to steal) takes it immediately.
        const unsigned thief = queues.idleThief(home);
        if (thief != kNoQueue)
            maybeSteal(thief, now);
    }
}

void
System::startOsExecution(std::uint32_t tid, Cycle start, unsigned target)
{
    Thread &thread = threads[tid];
    const CoreId os_core = topo.osCoreId(target);
    thread.servingOsCore = os_core;

    oscar_assert(start >= thread.offloadArrival);
    const Cycle waited = start - thread.offloadArrival;
    cores[thread.core].cycles().queueWait += waited;
    if (spans != nullptr)
        spans->queueWait(tid, start, waited, target);

    const InstCount length = extendedLength(thread.pendingInv);
    const Cycle cycles = executeSegment(
        thread, os_core, ExecContext::Os, length,
        thread.workload->serviceProfile(thread.pendingInv.service->id));
    cores[os_core].cycles().os += cycles;
    cores[os_core].retireOs(length);
    if (spans != nullptr) {
        spans->segment(tid, SpanPhase::OsExec, start, cycles,
                       static_cast<std::uint16_t>(
                           thread.pendingInv.service->id),
                       target);
    }

    events.schedulePayload(
        start + cycles,
        EventPayload{static_cast<std::uint32_t>(EventKind::OsComplete),
                     tid, static_cast<std::uint64_t>(length)});
}

void
System::osCoreComplete(std::uint32_t tid, InstCount executed_length)
{
    Thread &thread = threads[tid];
    const Cycle now = events.now();
    const unsigned queue_idx = topo.queueOf(thread.servingOsCore);

    thread.policy->observe(thread.pendingInv, thread.pendingDecision,
                           executed_length);
    profile.observe(thread.pendingInv.service->id, executed_length);
    recordInvocationLength(executed_length);
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::InvocationEnd;
        event.thread = tid;
        event.service = static_cast<std::uint16_t>(
            thread.pendingInv.service->id);
        event.actual = executed_length;
        event.offload = true;
        emitTrace(event);
    }
    retire(thread, executed_length, true);

    // Migrate back to the user core.
    const Cycle one_way =
        topo.migrationOneWay(thread.servingOsCore, thread.core);
    cores[thread.core].cycles().migration += one_way;
    countMigration(thread.servingOsCore, thread.core);
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::Migration;
        event.thread = tid;
        event.toOs = false;
        event.latency = one_way;
        event.queue = traceQueue(queue_idx);
        emitTrace(event);
    }
    if (spans != nullptr) {
        spans->segment(tid, SpanPhase::MigrationBack, now, one_way,
                       static_cast<std::uint16_t>(
                           thread.pendingInv.service->id),
                       queue_idx);
    }
    if (servingMode()) {
        oscar_assert(thread.servingRequest && thread.segmentsLeft > 0);
        --thread.segmentsLeft;
    }
    scheduleThread(tid, now + one_way);

    // Admit the next queued request; an empty work-stealing queue
    // raids the deepest peer instead of going idle.
    OffloadRequest next{};
    if (!queues.queue(queue_idx).completeCurrent(now, next)) {
        maybeSteal(queue_idx, now);
        return;
    }
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::QueueExit;
        event.thread = next.threadId;
        event.latency = now - next.arrival;
        event.queue = traceQueue(queue_idx);
        emitTrace(event);
    }
    startOsExecution(next.threadId, now, queue_idx);
}

void
System::maybeSteal(unsigned thief, Cycle now)
{
    const unsigned victim = queues.stealVictim(thief);
    if (victim == kNoQueue)
        return;
    const OffloadRequest req = queues.queue(victim).stealOldest();
    Thread &thread = threads[req.threadId];
    const CoreId from_core = topo.osCoreId(victim);
    const CoreId to_core = topo.osCoreId(thief);
    const Cycle transfer = topo.migrationOneWay(from_core, to_core);
    cores[thread.core].cycles().migration += transfer;
    countMigration(from_core, to_core);
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::Steal;
        event.thread = req.threadId;
        event.queueFrom = victim;
        event.queue = thief;
        event.latency = transfer;
        emitTrace(event);
    }
    if (spans != nullptr)
        spans->stealTransfer(req.threadId, now, transfer, thief);
    thread.pendingQueue = thief;
    // The thief is committed now (so later arrivals queue behind the
    // stolen request) but service starts after the transfer.
    const Cycle start = now + transfer;
    queues.queue(thief).adoptStolen(req, start);
    const std::uint32_t stolen_tid = req.threadId;
    events.schedulePayload(
        start,
        EventPayload{static_cast<std::uint32_t>(EventKind::StealGo),
                     stolen_tid, static_cast<std::uint64_t>(thief)});
}

void
System::countMigration(CoreId from, CoreId to)
{
    ++(topo.nodeOf(from) == topo.nodeOf(to) ? counts.migIntra
                                             : counts.migInter);
}

// ---------------------------------------------------------------------
// Serving mode

void
System::scheduleNextArrival()
{
    pendingArrival = requests->nextArrival();
    events.schedulePayload(
        pendingArrival.issued,
        EventPayload{
            static_cast<std::uint32_t>(EventKind::ArrivalDeliver), 0,
            0});
}

void
System::scheduleClientIssue(std::uint32_t client, Cycle when)
{
    events.schedulePayload(
        when, EventPayload{
                  static_cast<std::uint32_t>(EventKind::ClientIssue),
                  client, 0});
}

std::uint32_t
System::dispatchTarget(const Request &request) const
{
    const auto n = static_cast<std::uint32_t>(threads.size());
    if (cfg.serving->dispatch == DispatchPolicy::TenantAffinity)
        return request.tenant % n;
    if (cfg.serving->dispatch == DispatchPolicy::NodeAffinity) {
        // User cores interleave over nodes (c mod N), so node `node`
        // owns user cores node, node+N, node+2N, ...
        const auto nodes = static_cast<std::uint32_t>(topo.nodes());
        const std::uint32_t node = request.tenant % nodes;
        const std::uint32_t count = (n - node + nodes - 1) / nodes;
        const auto pick = static_cast<std::uint32_t>(request.id % count);
        return node + pick * nodes;
    }
    return static_cast<std::uint32_t>(request.id % n);
}

void
System::dispatchRequest(std::uint32_t tid, const Request &request)
{
    if (servingDone)
        return;
    ++counts.requestsOffered;
    requestQueues[tid].push_back(request);
    Thread &thread = threads[tid];
    if (thread.idle) {
        thread.idle = false;
        scheduleThread(tid, events.now());
    }
}

bool
System::beginRequest(std::uint32_t tid, Cycle now)
{
    Thread &thread = threads[tid];
    if (requestQueues[tid].empty())
        return false;
    thread.currentRequest = requestQueues[tid].front();
    requestQueues[tid].pop_front();
    thread.servingRequest = true;
    thread.segmentsLeft = thread.currentRequest.segments;
    oscar_assert(now >= thread.currentRequest.issued);
    const Cycle waited = now - thread.currentRequest.issued;
    if (measuring)
        requestDispatchWait.add(static_cast<double>(waited));
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::RequestStart;
        event.thread = tid;
        event.requestId = thread.currentRequest.id;
        event.tenant = thread.currentRequest.tenant;
        event.actual = thread.currentRequest.segments;
        event.latency = waited;
        // Carry the home dispatch queue when K>1, matching the
        // qenter/qexit convention, so spans reconstructed from traces
        // can bind a request to its queue.
        event.queue = traceQueue(topo.homeQueue(thread.core));
        emitTrace(event);
    }
    if (spans != nullptr) {
        spans->begin(tid, thread.currentRequest.id,
                     thread.currentRequest.tenant,
                     thread.currentRequest.segments,
                     thread.currentRequest.issued, now);
    }
    return true;
}

void
System::completeRequest(std::uint32_t tid, Cycle now)
{
    Thread &thread = threads[tid];
    oscar_assert(thread.servingRequest && thread.segmentsLeft == 0);
    thread.servingRequest = false;
    const Cycle latency = now - thread.currentRequest.issued;

    ++counts.requestsCompleted;
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::RequestEnd;
        event.thread = tid;
        event.requestId = thread.currentRequest.id;
        event.tenant = thread.currentRequest.tenant;
        event.latency = latency;
        event.queue = traceQueue(topo.homeQueue(thread.core));
        emitTrace(event);
    }
    // Before the measuring block: the request that triggers
    // enterMeasurement below is warmup, exactly like requestLatency.
    if (spans != nullptr)
        spans->complete(tid, now, measuring);

    if (measuring) {
        requestLatency.add(latency);
        if (measuredRequestsCompleted() >= cfg.serving->measureRequests) {
            servingDone = true;
            servingEndCycle = now;
        }
    } else if (counts.requestsCompleted >= cfg.serving->warmupRequests) {
        enterMeasurement();
    }

    if (cfg.serving->arrival == ArrivalModel::ClosedLoop &&
        !servingDone) {
        scheduleClientIssue(thread.currentRequest.client,
                            now + requests->thinkTime());
    }
}

void
System::beginRun()
{
    oscar_assert(!started);
    started = true;

    if (cfg.serving) {
        // The stream's seed is decorrelated from the simulator's root
        // so attaching the front-end perturbs no workload/interrupt
        // stream.
        requests = std::make_unique<RequestStream>(
            *cfg.serving, cfg.seed ^ 0x5245515354ULL);
        requestQueues.resize(threads.size());
        for (Thread &thread : threads)
            thread.idle = true;

        if (cfg.serving->arrival == ArrivalModel::OpenLoop) {
            scheduleNextArrival();
        } else {
            const auto clients =
                cfg.serving->clientsPerCore *
                static_cast<std::uint32_t>(threads.size());
            for (std::uint32_t c = 0; c < clients; ++c)
                scheduleClientIssue(c, requests->thinkTime());
        }
        return;
    }

    for (std::uint32_t t = 0; t < threads.size(); ++t)
        scheduleThread(t, 0);
}

void
System::runLoop(bool stop_at_measurement_start)
{
    if (servingMode()) {
        while (!servingDone) {
            if (stop_at_measurement_start && measuring)
                return;
            if (events.empty())
                oscar_panic("event queue drained before the serving "
                            "horizon (%llu of %llu measured requests)",
                            static_cast<unsigned long long>(
                                measuredRequestsCompleted()),
                            static_cast<unsigned long long>(
                                cfg.serving->measureRequests));
            events.runOne();
        }
        return;
    }

    while (finishedThreads < threads.size()) {
        if (stop_at_measurement_start && measuring)
            return;
        if (events.empty())
            oscar_panic("event queue drained before all threads finished");
        events.runOne();
    }
}

SimResults
System::finishRun()
{
    // The run reached its horizon: the recorded stream is complete.
    if (tapeOut != nullptr) {
        tapeOut->finish();
        tapeOut.reset();
    }
    // Forced final sample so the exported series always ends at the
    // run's true end state (refreshing an equal-instant periodic row).
    if (metrics != nullptr) {
        metrics->takeSample(retiredTotal(), events.now(),
                            /*refresh_equal=*/true);
    }
    return collectResults();
}

SimResults
System::run()
{
    beginRun();
    runLoop(/*stop_at_measurement_start=*/false);
    return finishRun();
}

void
System::runToMeasurementStart()
{
    beginRun();
    runLoop(/*stop_at_measurement_start=*/true);
    oscar_assert(measuring &&
                 "run reached its horizon before measurement started");
}

SimResults
System::resumeRun()
{
    oscar_assert(started && measuring);
    runLoop(/*stop_at_measurement_start=*/false);
    return finishRun();
}

System::Counters
System::Counters::operator-(const Counters &m) const
{
    Counters since;
    since.retiredUser = retiredUser - m.retiredUser;
    since.retiredOs = retiredOs - m.retiredOs;
    since.invocations = invocations - m.invocations;
    since.offloads = offloads - m.offloads;
    for (std::size_t i = 0; i < kNumServices; ++i) {
        since.invocationsByService[i] =
            invocationsByService[i] - m.invocationsByService[i];
        since.offloadsByService[i] =
            offloadsByService[i] - m.offloadsByService[i];
    }
    since.migIntra = migIntra - m.migIntra;
    since.migInter = migInter - m.migInter;
    since.requestsOffered = requestsOffered - m.requestsOffered;
    since.requestsCompleted = requestsCompleted - m.requestsCompleted;
    return since;
}

CoreMemStats
System::measuredMemStats(CoreId core) const
{
    oscar_assert(core < mark.mem.size());
    return mem->stats(core) - mark.mem[core];
}

CycleBreakdown
System::measuredCycles(CoreId core) const
{
    oscar_assert(core < cores.size());
    return cores[core].cycles() - mark.cycles[core];
}

SimResults
System::collectResults() const
{
    SimResults results;
    results.workload = makeWorkloadSpec(cfg.workload).name;
    results.policy = policyShortName(cfg.policy);

    Cycle last_finish = measureStart;
    if (servingMode()) {
        // The serving horizon ends at the closing request, not at a
        // per-thread instruction quota.
        last_finish = std::max(servingEndCycle, measureStart);
    } else {
        for (const Thread &thread : threads)
            last_finish = std::max(last_finish, thread.finishCycle);
    }
    const Counters measured = counts - mark.system;
    const InstCount retired = measured.retiredUser + measured.retiredOs;
    results.makespan = last_finish - measureStart;
    results.retired = retired;
    results.throughput =
        results.makespan
            ? static_cast<double>(results.retired) /
                  static_cast<double>(results.makespan)
            : 0.0;
    results.privFraction =
        retired ? static_cast<double>(measured.retiredOs) /
                      static_cast<double>(retired)
                : 0.0;

    double user_l2 = 0.0;
    std::uint64_t c2c = 0;
    std::uint64_t invalidations = 0;
    for (unsigned c = 0; c < cfg.userCores; ++c) {
        const CoreMemStats user_stats = measuredMemStats(c);
        user_l2 += user_stats.l2HitRate();
        c2c += user_stats.c2cTransfers;
        invalidations += user_stats.invalidationsReceived;
    }
    results.userL2HitRate = user_l2 / cfg.userCores;
    double combined = user_l2;
    if (cfg.offloadEnabled) {
        double os_l2 = 0.0;
        for (unsigned k = 0; k < topo.osCoreCount(); ++k) {
            const CoreMemStats os_stats =
                measuredMemStats(topo.osCoreId(k));
            os_l2 += os_stats.l2HitRate();
            c2c += os_stats.c2cTransfers;
            invalidations += os_stats.invalidationsReceived;
        }
        results.osL2HitRate = os_l2 / topo.osCoreCount();
        combined += os_l2;
    }
    results.combinedL2HitRate = combined / cfg.totalCores();
    results.c2cTransfers = c2c;
    results.invalidations = invalidations;

    results.invocations = measured.invocations;
    results.offloaded = measured.offloads;
    results.offloadFraction =
        measured.invocations
            ? static_cast<double>(measured.offloads) / measured.invocations
            : 0.0;
    results.meanInvocationLength = invocationLength.mean();
    results.offloadRatio.addMany(measured.offloads, measured.invocations);

    if (servingMode()) {
        results.servingEnabled = true;
        results.requestsCompleted = measured.requestsCompleted;
        results.requestsOffered = measured.requestsOffered;
        results.requestThroughput =
            results.makespan
                ? static_cast<double>(measured.requestsCompleted) *
                      1000.0 / static_cast<double>(results.makespan)
                : 0.0;
        results.requestLatency = requestLatency;
        results.requestDispatchWait = requestDispatchWait;
        if (spans != nullptr)
            results.spans = std::make_shared<SpanResults>(spans->results());
    }

    if (cfg.offloadEnabled) {
        const unsigned K = queues.size();
        double total_util = 0.0;
        std::uint64_t steals = 0;
        std::uint64_t spills = 0;
        results.osQueues.reserve(K);
        for (unsigned k = 0; k < K; ++k) {
            const OsCoreQueue &q = queues.queue(k);
            const OsQueueCounters counted = q.counters() - mark.queues[k];
            const CoreId core_id = topo.osCoreId(k);
            OsQueueResult entry;
            entry.queue = k;
            entry.core = core_id;
            entry.node = topo.nodeOf(core_id);
            entry.admitted = counted.admitted;
            entry.stealsIn = counted.stealsIn;
            entry.stealsOut = counted.stealsOut;
            entry.spillsIn = counted.spillsIn;
            entry.spillsOut = counted.spillsOut;
            entry.utilization =
                measuredCycles(core_id).utilization(results.makespan);
            entry.queueDelay = q.queueDelay();
            entry.wait = q.waitHistogram();
            total_util += entry.utilization;
            steals += entry.stealsIn;
            spills += entry.spillsIn;
            results.osQueues.push_back(std::move(entry));
        }
        results.steals = steals;
        results.spills = spills;
        results.numaMigrationsIntra = measured.migIntra;
        results.numaMigrationsInter = measured.migInter;
        results.osCoreUtilization = total_util / K;
        if (K == 1) {
            // Bit-exact legacy path: no merge round-off for the
            // golden single-OS-core experiments.
            results.meanQueueDelay = queues.queue(0).queueDelay().mean();
            results.maxQueueDelay = queues.queue(0).queueDelay().max();
        } else {
            RunningStat pooled;
            for (unsigned k = 0; k < K; ++k)
                pooled.merge(queues.queue(k).queueDelay());
            results.meanQueueDelay = pooled.mean();
            results.maxQueueDelay = pooled.max();
        }
    }

    for (std::size_t c = 0; c < cores.size(); ++c) {
        const CycleBreakdown spent = measuredCycles(c);
        results.decisionCycles += spent.decision;
        results.migrationCycles += spent.migration;
        results.queueWaitCycles += spent.queueWait;
    }

    for (const Thread &thread : threads) {
        if (thread.predictive != nullptr)
            results.accuracy.merge(thread.predictive->stats());
    }

    for (std::size_t i = 0; i < 4; ++i) {
        results.osShareAbove[i] =
            retired ? static_cast<double>(osInstrAboveTail[i]) /
                          static_cast<double>(retired)
                    : 0.0;
    }

    results.invocationsByService = measured.invocationsByService;
    results.offloadsByService = measured.offloadsByService;

    results.finalThreshold = cfg.dynamicThreshold
                                 ? controller.currentThreshold()
                                 : cfg.staticThreshold;
    results.thresholdSwitches = controller.switches();
    results.thresholdTrajectory = thresholdTrajectory;
    results.warmupPrivFraction = warmupPrivFraction;
    return results;
}

} // namespace oscar
