/**
 * @file
 * Implementation of whole-run trace capture.
 */

#include "system/trace_capture.hh"

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace oscar
{

std::string
traceHeaderJson(const SystemConfig &config)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kTraceSchema);
    w.key("config");
    w.beginObject();
    writeConfigIdentity(w, config);
    writeConfigHorizons(w, config);
    writeConfigTopology(w, config);
    w.endObject();
    w.endObject();
    oscar_assert(w.complete());
    return w.str();
}

std::string
TraceCapture::text() const
{
    std::string out;
    std::size_t size = header.size() + 1;
    for (const std::string &line : lines)
        size += line.size() + 1;
    out.reserve(size);
    out += header;
    out += '\n';
    for (const std::string &line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

TraceCapture
captureTrace(const SystemConfig &config)
{
    TraceCapture capture;
    capture.header = traceHeaderJson(config);
    MemoryTraceSink sink;
    capture.results = ExperimentRunner::run(config, &sink);
    capture.lines = sink.lines();
    return capture;
}

bool
writeTraceFile(const SystemConfig &config, const std::string &path)
{
    JsonlTraceSink sink(path, traceHeaderJson(config));
    if (!sink.ok())
        return false;
    (void)ExperimentRunner::run(config, &sink);
    sink.flush();
    return sink.ok();
}

const std::vector<GoldenTraceConfig> &
goldenTraceConfigs()
{
    static const std::vector<GoldenTraceConfig> catalogue = [] {
        // Golden runs are deliberately tiny: large enough to exercise
        // warmup -> measurement, inline and off-loaded invocations,
        // queueing and (for the dynamic point) several controller
        // rounds, yet small enough that the checked-in files stay in
        // the tens of kilobytes and the diff runs in milliseconds.
        constexpr InstCount kWarmup = 20'000;
        constexpr InstCount kMeasure = 60'000;
        std::vector<GoldenTraceConfig> list;

        {
            GoldenTraceConfig g;
            g.name = "apache_hi_static";
            g.config = ExperimentRunner::hardwareConfig(
                WorkloadKind::Apache, /*static_n=*/1000,
                /*migration_one_way=*/100);
            g.config.warmupInstructions = kWarmup;
            g.config.measureInstructions = kMeasure;
            list.push_back(std::move(g));
        }
        {
            GoldenTraceConfig g;
            g.name = "derby_hi_dynamic";
            g.config = ExperimentRunner::hardwareDynamicConfig(
                WorkloadKind::Derby, /*migration_one_way=*/100);
            g.config.warmupInstructions = kWarmup;
            // The dynamic point needs several controller rounds inside
            // the measured region: shrink the epochs below the run
            // length (default-scaled sample epochs would be 125k
            // instructions, longer than the whole golden run).
            g.config.measureInstructions = 150'000;
            g.config.thresholdConfig.epochScale = 0.0004;
            list.push_back(std::move(g));
        }
        {
            GoldenTraceConfig g;
            g.name = "specjbb_dm_static";
            g.config = ExperimentRunner::hardwareConfig(
                WorkloadKind::SpecJbb, /*static_n=*/100,
                /*migration_one_way=*/500);
            g.config.predictor = PredictorKind::DirectMapped;
            // Two user threads contending for one OS core: the only
            // way queue-exit (delayed admission) events can occur.
            g.config.userCores = 2;
            g.config.warmupInstructions = kWarmup;
            g.config.measureInstructions = kMeasure;
            list.push_back(std::move(g));
        }
        {
            // Multi-OS-core NUMA point: two OS cores spread over two
            // nodes with work stealing and a shallow spill depth, so
            // the trace pins down queue-annotated migrate/qenter/qexit
            // events plus steal and spill records.
            GoldenTraceConfig g;
            g.name = "apache_hi_numa_steal";
            // N=0 off-loads every invocation: the only golden point
            // saturated enough for overflow spills to fire alongside
            // steals.
            g.config = ExperimentRunner::hardwareConfig(
                WorkloadKind::Apache, /*static_n=*/0,
                /*migration_one_way=*/100);
            // Five user cores over two nodes: users 0, 2, 4 share the
            // node-0 OS core, so a third arrival can find the queue
            // busy with one waiting (the spill precondition — with
            // only two home users the depth never reaches the spill
            // threshold), while the node-1 OS core drains its two
            // users fast enough to steal.
            g.config.userCores = 5;
            g.config.topology.osCores = 2;
            g.config.topology.numaNodes = 2;
            g.config.topology.placement = OsPlacement::Spread;
            g.config.topology.dispatch = OsDispatchPolicy::WorkStealing;
            g.config.topology.spillDepth = 1;
            g.config.topology.intraNodeHopCycles = 20;
            g.config.topology.interNodeHopCycles = 400;
            g.config.warmupInstructions = kWarmup;
            // Five always-off-loading threads trace densely; a shorter
            // measured region keeps this golden in line with the rest.
            g.config.measureInstructions = 15'000;
            list.push_back(std::move(g));
        }
        return list;
    }();
    return catalogue;
}

const GoldenTraceConfig *
findGoldenTraceConfig(const std::string &name)
{
    for (const GoldenTraceConfig &golden : goldenTraceConfigs()) {
        if (golden.name == name)
            return &golden;
    }
    return nullptr;
}

} // namespace oscar
