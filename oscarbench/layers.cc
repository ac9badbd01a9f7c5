#include "layers.hh"

#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "core/offload_policy.hh"
#include "core/run_length_predictor.hh"
#include "cpu/exec_engine.hh"
#include "mem/memory_system.hh"
#include "os/numa_topology.hh"
#include "os/os_queue_set.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/metrics_reader.hh"
#include "sim/span.hh"
#include "sim/span_reader.hh"
#include "system/metrics_capture.hh"
#include "system/span_capture.hh"
#include "system/trace_capture.hh"
#include "workload/profiles.hh"
#include "workload/request_stream.hh"
#include "workload/workload.hh"

namespace oscarbench
{

using namespace oscar;

namespace
{

/** Keeps a probe's result observable so the optimizer cannot drop it. */
volatile std::uint64_t gSink = 0;

/** Host nanoseconds spent in `body`, inside a span carrying `work`. */
template <typename F>
double
timedNs(Tracer &tracer, const char *name, std::uint64_t parent,
        double work, F &&body)
{
    Span span(&tracer, name, parent);
    span.work = work;
    const Clock::time_point start = Clock::now();
    body();
    return 1e9 * secondsSince(start);
}

/**
 * One apache thread's workload instance over a private address space,
 * the inputs of the workload, cpu, mem and core probes.
 */
struct ApacheThread
{
    ServiceTable table;
    AddressSpace space;
    WorkloadSpec spec = makeWorkloadSpec(WorkloadKind::Apache);
    OsPools pools = OsPools::build(space, table, spec);
    Workload workload{spec, table, space, pools, 64};
    Rng rng;
    ArchState arch;

    explicit ApacheThread(std::uint64_t seed) : rng(seed) {}
};

void
workloadProbes(ApacheThread &t, std::uint64_t seed, bool tiny,
               Tracer &tracer, std::uint64_t parent,
               std::vector<OsInvocation> &invocations,
               std::map<std::string, double> &out)
{
    const std::size_t tokens = tiny ? 20'000 : 400'000;
    invocations.reserve(tokens / 2);
    std::uint64_t sink = 0;
    double ns = timedNs(tracer, "workload.next", parent,
                        static_cast<double>(tokens), [&] {
        for (std::size_t i = 0; i < tokens; ++i) {
            const WorkloadToken token = t.workload.next(t.rng, t.arch);
            if (token.kind == TokenKind::OsCall)
                invocations.push_back(token.invocation);
            sink += token.burstLength;
        }
    });
    out["workload.token_ns"] = ns / static_cast<double>(tokens);

    // Data-reference generation on the thread's user profile and on
    // the service profiles of the invocations it just emitted.
    const std::size_t refs = tiny ? 200'000 : 4'000'000;
    const SegmentProfile &user = t.workload.userProfile();
    ns = timedNs(tracer, "workload.ref_gen", parent,
                 static_cast<double>(refs), [&] {
        for (std::size_t i = 0; i < refs / 2; ++i)
            sink += user.sampleData(t.rng).region->nextAccess(t.rng);
        std::size_t done = 0;
        for (std::size_t k = 0; done < refs / 2; ++k) {
            const SegmentProfile &service = t.workload.serviceProfile(
                invocations[k % invocations.size()].service->id);
            if (!service.hasData())
                continue;
            for (int j = 0; j < 64; ++j, ++done)
                sink += service.sampleData(t.rng).region->nextAccess(t.rng);
        }
    });
    out["workload.ref_gen_ns"] = ns / static_cast<double>(refs);

    const std::size_t requests = tiny ? 20'000 : 400'000;
    RequestStream stream(
        *makeServing(14'000.0, DispatchPolicy::RoundRobin, false), seed);
    ns = timedNs(tracer, "workload.request", parent,
                 static_cast<double>(requests), [&] {
        for (std::size_t i = 0; i < requests; ++i)
            sink += stream.nextArrival().issued;
    });
    out["workload.request_ns"] = ns / static_cast<double>(requests);
    gSink = gSink + sink;
}

void
cpuMemProbes(ApacheThread &t, bool tiny, Tracer &tracer,
             std::uint64_t parent, std::map<std::string, double> &out)
{
    // The execution kernel on the thread's user profile, caches warmed
    // first, in burst-sized segments like the system issues them.
    MemorySystem mem(1, HierarchyGeometry{}, MemTimings{});
    const SegmentProfile &user = t.workload.userProfile();
    const InstCount segment = 10'000;
    const InstCount warm = tiny ? 200'000 : 2'000'000;
    const InstCount timed = tiny ? 400'000 : 8'000'000;
    for (InstCount done = 0; done < warm; done += segment)
        ExecEngine::execute(mem, 0, ExecContext::User, segment, user, t.rng);
    const CoreMemStats before = mem.stats(0);
    std::uint64_t refs = 0;
    const double ns = timedNs(tracer, "cpu.execute", parent,
                              static_cast<double>(timed), [&] {
        for (InstCount done = 0; done < timed; done += segment) {
            const ExecResult r = ExecEngine::execute(
                mem, 0, ExecContext::User, segment, user, t.rng);
            refs += r.dataAccesses + r.fetches;
        }
    });
    out["cpu.exec_ns_per_ref"] = ns / static_cast<double>(refs);
    out["cpu.refs_per_kinst"] =
        1e3 * static_cast<double>(refs) / static_cast<double>(timed);

    const CoreMemStats &after = mem.stats(0);
    const double l1_hits = static_cast<double>(
        after.l1d.hits() + after.l1i.hits() - before.l1d.hits() -
        before.l1i.hits());
    const double l1_total = static_cast<double>(
        after.l1d.total() + after.l1i.total() - before.l1d.total() -
        before.l1i.total());
    const double l2_hits = static_cast<double>(after.l2User.hits() -
                                               before.l2User.hits());
    const double l2_total = static_cast<double>(after.l2User.total() -
                                                before.l2User.total());
    out["mem.l1_hit_ratio"] = l1_total > 0 ? l1_hits / l1_total : 0.0;
    out["mem.l2_hit_ratio"] = l2_total > 0 ? l2_hits / l2_total : 0.0;

    // The batched probe alone, on pre-generated blocks: an L1-resident
    // region, then a uniform region four times larger than the L2.
    constexpr std::size_t kBlock = 4096;
    const std::size_t blocks = tiny ? 8 : 128;
    auto probe = [&](const char *name, std::uint64_t bytes, double reuse) {
        AddressSpace space;
        RegionParams params;
        params.name = name;
        params.sizeBytes = bytes;
        params.zipfSkew = 0.0;
        params.reuseFraction = reuse;
        AddressRegion *region = space.allocate(params);
        std::vector<std::uint64_t> packed(kBlock * blocks);
        for (std::uint64_t &ref : packed)
            ref = PackedRef::make(region->nextAccess(t.rng),
                                  PackedRef::kRead);
        MemorySystem probed(1, HierarchyGeometry{}, MemTimings{});
        // One untimed pass fills whatever the region lets stay cached.
        for (std::size_t b = 0; b < blocks; ++b)
            probed.accessBatch(0, ExecContext::User,
                               packed.data() + b * kBlock, kBlock);
        Cycle cycles = 0;
        const double probe_ns = timedNs(
            tracer, name, parent, static_cast<double>(packed.size()), [&] {
                for (std::size_t b = 0; b < blocks; ++b)
                    cycles += probed.accessBatch(
                        0, ExecContext::User, packed.data() + b * kBlock,
                        kBlock);
            });
        gSink = gSink + cycles;
        return probe_ns / static_cast<double>(packed.size());
    };
    out["mem.probe_hot_ns"] = probe("mem.probe_hot", 16 * 1024, 0.5);
    out["mem.probe_cold_ns"] = probe("mem.probe_cold", 4 << 20, 0.0);
}

void
coreProbes(const std::vector<OsInvocation> &invocations, bool tiny,
           Tracer &tracer, std::uint64_t parent,
           std::map<std::string, double> &out)
{
    const std::size_t ops = tiny ? 50'000 : 2'000'000;
    std::vector<std::uint64_t> astates;
    astates.reserve(invocations.size());
    for (const OsInvocation &inv : invocations)
        astates.push_back(inv.astate());

    CamPredictor predictor;
    std::uint64_t sink = 0;
    double ns = timedNs(tracer, "core.predict_update", parent,
                        static_cast<double>(ops), [&] {
        for (std::size_t i = 0; i < ops; ++i) {
            const std::size_t k = i % invocations.size();
            sink += predictor.predict(astates[k]).length;
            predictor.update(astates[k], invocations[k].trueLength);
        }
    });
    out["core.predict_update_ns"] = ns / static_cast<double>(ops);

    CamPredictor policy_predictor;
    const StaticThreshold threshold(1000);
    PredictivePolicy policy(policy_predictor, threshold, 1,
                            PolicyKind::HardwarePredictor);
    ns = timedNs(tracer, "core.decide_observe", parent,
                 static_cast<double>(ops), [&] {
        for (std::size_t i = 0; i < ops; ++i) {
            const OsInvocation &inv = invocations[i % invocations.size()];
            const OffloadDecision decision = policy.decide(inv);
            policy.observe(inv, decision, inv.trueLength);
            sink += decision.offload;
        }
    });
    out["core.decide_ns"] = ns / static_cast<double>(ops);
    out["core.within_tol_ratio"] =
        policy.stats().exactRate() + policy.stats().withinToleranceRate();
    gSink = gSink + sink;
}

void
osProbes(std::uint64_t seed, bool tiny, Tracer &tracer,
         std::uint64_t parent, std::map<std::string, double> &out)
{
    // Routing queries on the six K=2 topologies of numa_topology, over
    // queue states produced by a random arrival/completion stream.
    const std::size_t per_topology = tiny ? 20'000 : 400'000;
    std::size_t routed = 0;
    double ns = 0.0;
    Rng rng(seed);
    for (const OsPlacement placement :
         {OsPlacement::Packed, OsPlacement::Spread}) {
        for (const OsDispatchPolicy dispatch :
             {OsDispatchPolicy::HomeNode, OsDispatchPolicy::LeastLoaded,
              OsDispatchPolicy::WorkStealing}) {
            const Topology topology(4, makeTopology(2, placement, dispatch),
                                    1'000);
            OsQueueSet queues;
            queues.build(topology);
            std::uint64_t sink = 0;
            ns += timedNs(tracer, "os.route", parent,
                          static_cast<double>(per_topology), [&] {
                for (std::size_t i = 0; i < per_topology; ++i) {
                    const Cycle now = i;
                    const CoreId user =
                        static_cast<CoreId>(rng.nextBounded(4));
                    unsigned target = queues.dispatchQueue(user);
                    const unsigned spill = queues.spillTarget(target);
                    if (spill != kNoQueue)
                        target = spill;
                    queues.queue(target).offer(
                        {static_cast<std::uint32_t>(i), now}, now);
                    sink += queues.idleThief(target);
                    // Complete about one request per arrival so queue
                    // depths wander instead of growing without bound.
                    const unsigned k =
                        static_cast<unsigned>(rng.nextBounded(2));
                    if (queues.queue(k).busy()) {
                        OffloadRequest next;
                        if (!queues.queue(k).completeCurrent(now, next))
                            sink += queues.stealVictim(k);
                    }
                }
            });
            routed += per_topology;
            gSink = gSink + sink;
        }
    }
    out["os.route_ns"] = ns / static_cast<double>(routed);

    // Steal and spill traffic of the two work-stealing K=2 cells of
    // numa_topology under heavy load, as simulated.
    std::uint64_t steals = 0;
    std::uint64_t spills = 0;
    std::uint64_t requests = 0;
    for (const OsPlacement placement :
         {OsPlacement::Packed, OsPlacement::Spread}) {
        SystemConfig config = ExperimentRunner::hardwareConfig(
            WorkloadKind::Apache, 1'000, 1'000, seed);
        config.userCores = 4;
        config.topology =
            makeTopology(2, placement, OsDispatchPolicy::WorkStealing);
        config.serving =
            makeServing(14'000.0, DispatchPolicy::NodeAffinity, tiny);
        Span span(&tracer, "os.k2_steal_run", parent);
        const SimResults r = ExperimentRunner::run(config);
        span.work = static_cast<double>(r.requestsCompleted);
        steals += r.steals;
        spills += r.spills;
        requests += r.requestsCompleted;
    }
    out["os.steals_per_kreq"] =
        1e3 * static_cast<double>(steals) / static_cast<double>(requests);
    out["os.spills_per_kreq"] =
        1e3 * static_cast<double>(spills) / static_cast<double>(requests);
}

void
noopHandler(void *, const EventPayload &payload, Cycle)
{
    gSink = gSink + payload.b;
}

std::uint64_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::uint64_t lines = 0;
    std::string line;
    while (std::getline(in, line))
        ++lines;
    return lines;
}

void
simProbes(std::uint64_t seed, bool tiny, const std::string &dir,
          Tracer &tracer, std::uint64_t parent,
          std::map<std::string, double> &out, CheckTally &tally)
{
    // Event queue: one schedulePayload + runOne per event, 64 pending.
    {
        EventQueue events;
        events.setPayloadHandler(noopHandler, nullptr);
        Rng rng(seed);
        for (std::uint64_t i = 0; i < 64; ++i)
            events.schedulePayload(1 + rng.nextBounded(1000), {0, 0, i});
        const std::size_t n = tiny ? 50'000 : 2'000'000;
        const double ns = timedNs(tracer, "sim.event", parent,
                                  static_cast<double>(n), [&] {
            for (std::size_t i = 0; i < n; ++i) {
                events.runOne();
                events.schedulePayload(
                    events.now() + 1 + rng.nextBounded(1000), {0, 0, i});
            }
        });
        out["sim.event_ns"] = ns / static_cast<double>(n);
    }

    // Emission cost: the same run with and without each channel.
    SystemConfig segment = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 1'000, 100, seed);
    segment.warmupInstructions = tiny ? 50'000 : 200'000;
    segment.measureInstructions = tiny ? 200'000 : 1'800'000;
    SystemConfig serving = ExperimentRunner::hardwareDynamicConfig(
        WorkloadKind::Apache, 100, seed);
    serving.userCores = 2;
    serving.serving =
        makeServing(14'000.0, DispatchPolicy::RoundRobin, tiny);

    // Each repetition runs all five variants back to back, so host
    // drift hits a pair alike; the cost is the median paired delta.
    const int reps = tiny ? 1 : 11;
    const std::string trace_path = dir + "/probe.trace.jsonl";
    const std::string metrics_path = dir + "/probe.metrics.jsonl";
    const std::string spans_path = dir + "/probe.spans.jsonl";
    std::size_t samples = 0;
    std::uint64_t requests = 0;
    std::vector<double> trace_delta, metrics_delta, spans_delta;
    {
        Span span(&tracer, "sim.emit_ab", parent);
        auto timed = [&](const char *name, auto &&body) {
            Span run(&tracer, name, span.id());
            const Clock::time_point start = Clock::now();
            body();
            return secondsSince(start);
        };
        for (int i = 0; i < reps; ++i) {
            const double plain = timed("run.plain", [&] {
                (void)ExperimentRunner::run(segment);
            });
            trace_delta.push_back(timed("run.trace", [&] {
                tally.check(writeTraceFile(segment, trace_path),
                            "probe trace not written");
            }) - plain);
            metrics_delta.push_back(timed("run.metrics", [&] {
                MetricRegistry registry(100'000);
                (void)ExperimentRunner::run(segment, nullptr, &registry);
                samples = registry.samples().size();
                tally.check(writeMetricsFile(registry, segment, metrics_path),
                            "probe metrics not written");
            }) - plain);
            const double serving_plain = timed("run.serving_plain", [&] {
                requests = ExperimentRunner::run(serving).requestsCompleted;
            });
            spans_delta.push_back(timed("run.spans", [&] {
                SpanRecorder recorder(8);
                (void)ExperimentRunner::run(serving, nullptr, nullptr,
                                            &recorder);
                tally.check(writeSpansFile(recorder.results(), serving,
                                           spans_path),
                            "probe spans not written");
            }) - serving_plain);
        }
    }
    const std::uint64_t records = countLines(trace_path) - 1;
    out["sim.trace_emit_ns"] =
        1e9 * median(trace_delta) / static_cast<double>(records);
    out["sim.metrics_sample_us"] =
        1e6 * median(metrics_delta) / static_cast<double>(samples);
    out["sim.span_ns_per_req"] =
        1e9 * median(spans_delta) / static_cast<double>(requests);

    // Strict readers over the documents just written.
    std::error_code ec;
    const double bytes = static_cast<double>(
        std::filesystem::file_size(metrics_path, ec) +
        std::filesystem::file_size(spans_path, ec));
    int passes = 0;
    Span read_span(&tracer, "sim.read_validate", parent);
    const Clock::time_point start = Clock::now();
    do {
        const MetricsFile mf = loadMetricsFile(metrics_path);
        const SpansFile sf = loadSpansFile(spans_path);
        const bool valid = mf.ok && sf.ok &&
                           validateMetricsFile(mf).empty() &&
                           validateSpansFile(sf).empty();
        if (passes == 0)
            tally.check(valid, "probe artifacts fail validation");
        ++passes;
    } while (secondsSince(start) < (tiny ? 0.01 : 0.2));
    const double read_s = secondsSince(start);
    read_span.work = bytes * passes;
    out["sim.reader_mb_per_s"] = bytes * passes / 1e6 / read_s;
}

} // namespace

void
runLayerProbes(std::uint64_t seed, bool tiny, const std::string &scratch_dir,
               Tracer &tracer, std::uint64_t parent,
               std::map<std::string, double> &out, CheckTally &tally)
{
    ApacheThread thread(seed);
    std::vector<OsInvocation> invocations;
    {
        Span span(&tracer, "layer.workload", parent);
        workloadProbes(thread, seed, tiny, tracer, span.id(), invocations,
                       out);
    }
    {
        Span span(&tracer, "layer.cpu_mem", parent);
        cpuMemProbes(thread, tiny, tracer, span.id(), out);
    }
    {
        Span span(&tracer, "layer.core", parent);
        coreProbes(invocations, tiny, tracer, span.id(), out);
    }
    {
        Span span(&tracer, "layer.os", parent);
        osProbes(seed, tiny, tracer, span.id(), out);
    }
    {
        Span span(&tracer, "layer.sim", parent);
        simProbes(seed, tiny, scratch_dir, tracer, span.id(), out, tally);
    }
}

} // namespace oscarbench
