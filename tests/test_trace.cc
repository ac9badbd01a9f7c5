/**
 * @file
 * Tests for the invocation-level trace subsystem: sink semantics,
 * serialization determinism, the trace differ, replay verification
 * (same config + seed => byte-identical traces, including across sweep
 * job counts), and divergence detection when behaviour is perturbed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "sim/trace_diff.hh"
#include "system/sweep.hh"
#include "system/trace_capture.hh"

namespace oscar
{
namespace
{

TraceEvent
eventWithCycle(Cycle cycle)
{
    TraceEvent event;
    event.kind = TraceEventKind::InvocationBegin;
    event.cycle = cycle;
    return event;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// Sinks

TEST(TraceSink, UnboundedMemorySinkKeepsEmissionOrder)
{
    MemoryTraceSink sink;
    for (Cycle c = 0; c < 10; ++c)
        sink.emit(eventWithCycle(c));
    EXPECT_EQ(sink.emitted(), 10u);
    const auto events = sink.events();
    ASSERT_EQ(events.size(), 10u);
    for (Cycle c = 0; c < 10; ++c)
        EXPECT_EQ(events[c].cycle, c);
}

TEST(TraceSink, WithoutClockEmitterCycleIsKept)
{
    MemoryTraceSink sink;
    sink.emit(eventWithCycle(17));
    EXPECT_EQ(sink.events().at(0).cycle, 17u);
}

TEST(TraceSink, JsonlSinkMatchesMemorySinkSerialization)
{
    const std::string path = tempPath("jsonl_sink.trace.jsonl");
    MemoryTraceSink memory;
    {
        JsonlTraceSink file(path, "{\"schema\":\"oscar.trace.v1\"}");
        ASSERT_TRUE(file.ok());
        for (Cycle c = 0; c < 5; ++c) {
            TraceEvent event = eventWithCycle(c);
            event.kind = TraceEventKind::Migration;
            event.thread = 3;
            event.toOs = (c % 2) == 0;
            event.latency = 100 * c;
            memory.emit(event);
            file.emit(event);
        }
    }
    std::string expected = "{\"schema\":\"oscar.trace.v1\"}\n";
    for (const std::string &line : memory.lines())
        expected += line + "\n";
    EXPECT_EQ(readFile(path), expected);
    std::remove(path.c_str());
}

TEST(TraceSink, JsonlSinkBufferedOutputIsByteIdenticalAcrossDrains)
{
    // Enough events to overflow the internal buffer several times: the
    // chunked writes must concatenate to exactly the per-line bytes.
    const std::string path = tempPath("jsonl_buffered.trace.jsonl");
    MemoryTraceSink memory;
    const std::size_t count =
        (3 * JsonlTraceSink::kBufferBytes) / 40; // ~40 bytes per line
    {
        JsonlTraceSink file(path, "{\"schema\":\"oscar.trace.v1\"}");
        ASSERT_TRUE(file.ok());
        for (std::size_t i = 0; i < count; ++i) {
            TraceEvent event = eventWithCycle(static_cast<Cycle>(i));
            event.thread = static_cast<std::uint32_t>(i % 13);
            event.astate = 0x1234567890ABCDEFULL + i;
            event.actual = static_cast<InstCount>(i * 3);
            memory.emit(event);
            file.emit(event);
        }
    }
    std::string expected = "{\"schema\":\"oscar.trace.v1\"}\n";
    for (const std::string &line : memory.lines())
        expected += line + "\n";
    EXPECT_GT(expected.size(), 2 * JsonlTraceSink::kBufferBytes);
    EXPECT_EQ(readFile(path), expected);
    std::remove(path.c_str());
}

TEST(TraceSink, JsonlSinkFlushMakesPartialBufferVisible)
{
    // flush() must expose buffered lines without waiting for overflow
    // or destruction (sweep progress reporting relies on this).
    const std::string path = tempPath("jsonl_flush.trace.jsonl");
    JsonlTraceSink file(path, "{\"schema\":\"oscar.trace.v1\"}");
    ASSERT_TRUE(file.ok());
    TraceEvent event = eventWithCycle(1);
    file.emit(event);
    file.flush();
    const std::string bytes = readFile(path);
    EXPECT_EQ(bytes,
              "{\"schema\":\"oscar.trace.v1\"}\n" +
                  traceEventJson(event) + "\n");
    std::remove(path.c_str());
}

TEST(TraceSink, JsonlSinkUnopenablePathReportsNotOk)
{
    JsonlTraceSink sink("/nonexistent-dir/trace.jsonl", "");
    EXPECT_FALSE(sink.ok());
    sink.emit(TraceEvent{}); // must not crash
}

// ---------------------------------------------------------------------
// Serialization

TEST(TraceEventJson, IsDeterministicAndSingleLine)
{
    TraceEvent event;
    event.kind = TraceEventKind::PredictorLookup;
    event.cycle = 123;
    event.thread = 1;
    event.astate = 0xdeadbeefcafe1234ull;
    event.predicted = 900;
    event.confidence = 2;
    event.fromGlobal = false;
    event.tableHit = true;
    event.threshold = 1000;
    const std::string a = traceEventJson(event);
    const std::string b = traceEventJson(event);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.find('\n'), std::string::npos);
    EXPECT_NE(a.find("\"k\":\"lookup\""), std::string::npos);
    EXPECT_NE(a.find("\"as\":\"0xdeadbeefcafe1234\""),
              std::string::npos);
}

TEST(TraceEventJson, AStateAboveDoublePrecisionIsLossless)
{
    // 2^53 + 1 is not representable as a double; the hex-string
    // encoding must preserve it exactly.
    TraceEvent event;
    event.kind = TraceEventKind::InvocationBegin;
    event.astate = (1ull << 53) + 1;
    const std::string json = traceEventJson(event);
    EXPECT_NE(json.find("\"as\":\"0x20000000000001\""),
              std::string::npos);
}

TEST(TraceEventJson, EveryKindHasAStableName)
{
    const std::vector<std::pair<TraceEventKind, const char *>> kinds = {
        {TraceEventKind::InvocationBegin, "begin"},
        {TraceEventKind::PredictorLookup, "lookup"},
        {TraceEventKind::Decision, "decision"},
        {TraceEventKind::Migration, "migrate"},
        {TraceEventKind::QueueEnter, "qenter"},
        {TraceEventKind::QueueExit, "qexit"},
        {TraceEventKind::InvocationEnd, "end"},
        {TraceEventKind::EpochEnd, "epoch"},
        {TraceEventKind::ThresholdChange, "nswitch"},
        {TraceEventKind::MeasurementStart, "measure"},
    };
    for (const auto &[kind, name] : kinds)
        EXPECT_STREQ(traceEventKindName(kind), name);
}

// ---------------------------------------------------------------------
// Differ

TEST(TraceDiff, IdenticalTraces)
{
    const std::vector<std::string> lines = {"a", "b", "c"};
    const TraceDiffReport report = diffTraceLines(lines, lines);
    EXPECT_TRUE(report.identical);
    EXPECT_EQ(report.leftLineCount, 3u);
    EXPECT_NE(report.format().find("identical"), std::string::npos);
}

TEST(TraceDiff, ReportsFirstDivergentLineWithContext)
{
    const std::vector<std::string> left = {"l0", "l1", "l2", "l3",
                                           "l4", "DIFF-L"};
    std::vector<std::string> right = left;
    right[5] = "DIFF-R";
    const TraceDiffReport report = diffTraceLines(left, right, 3);
    EXPECT_FALSE(report.identical);
    EXPECT_EQ(report.divergenceLine, 5u);
    EXPECT_EQ(report.left, "DIFF-L");
    EXPECT_EQ(report.right, "DIFF-R");
    ASSERT_EQ(report.context.size(), 3u);
    EXPECT_EQ(report.context.front(), "l2");
    EXPECT_EQ(report.context.back(), "l4");
}

TEST(TraceDiff, PrefixTraceDivergesAtTruncation)
{
    const std::vector<std::string> left = {"a", "b", "c"};
    const std::vector<std::string> right = {"a", "b"};
    const TraceDiffReport report = diffTraceLines(left, right);
    EXPECT_FALSE(report.identical);
    EXPECT_EQ(report.divergenceLine, 2u);
    EXPECT_EQ(report.left, "c");
    EXPECT_TRUE(report.right.empty());
    EXPECT_NE(report.format().find("<end of trace>"),
              std::string::npos);
}

TEST(TraceDiff, SplitHandlesMissingFinalNewline)
{
    EXPECT_EQ(splitTraceLines("a\nb\nc").size(), 3u);
    EXPECT_EQ(splitTraceLines("a\nb\nc\n").size(), 3u);
    EXPECT_TRUE(splitTraceLines("").empty());
}

// ---------------------------------------------------------------------
// Replay verification

/** A tiny but representative traced configuration. */
SystemConfig
smallTracedConfig()
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 1000, 100);
    config.warmupInstructions = 10'000;
    config.measureInstructions = 30'000;
    return config;
}

TEST(TraceReplay, SameConfigAndSeedIsByteIdentical)
{
    const TraceCapture first = captureTrace(smallTracedConfig());
    const TraceCapture second = captureTrace(smallTracedConfig());
    ASSERT_GT(first.lines.size(), 0u);
    const TraceDiffReport report =
        diffTraceText(first.text(), second.text());
    EXPECT_TRUE(report.identical) << report.format();
    EXPECT_EQ(first.text(), second.text());
}

TEST(TraceReplay, DifferentSeedsDiverge)
{
    SystemConfig other = smallTracedConfig();
    other.seed = 43;
    const TraceCapture first = captureTrace(smallTracedConfig());
    const TraceCapture second = captureTrace(other);
    EXPECT_FALSE(
        diffTraceLines(first.lines, second.lines).identical);
}

TEST(TraceReplay, StreamedFileMatchesInMemoryCapture)
{
    const std::string path = tempPath("replay_streamed.trace.jsonl");
    const SystemConfig config = smallTracedConfig();
    ASSERT_TRUE(writeTraceFile(config, path));
    const TraceCapture capture = captureTrace(config);
    EXPECT_EQ(readFile(path), capture.text());
    std::remove(path.c_str());
}

TEST(TraceReplay, SweepTraceFilesAreIdenticalAcrossJobCounts)
{
    // The acceptance property: per-point trace files are byte-equal
    // whether the sweep ran on one worker or four.
    std::vector<SweepPoint> points;
    for (InstCount n : {100, 1000, 10000}) {
        SweepPoint point;
        point.label = "N=" + std::to_string(n);
        point.config = smallTracedConfig();
        point.config.staticThreshold = n;
        point.normalize = false;
        points.push_back(std::move(point));
    }

    auto run_with = [&](unsigned jobs, const std::string &base) {
        std::vector<SweepPoint> copy = points;
        BenchOptions opts;
        opts.tracePath = base;
        applySweepArtifactPaths(copy, opts);
        ParallelSweepRunner runner({jobs});
        const auto results = runner.run(copy);
        for (const auto &result : results)
            EXPECT_TRUE(result.ok) << result.error;
        return copy;
    };

    const auto serial =
        run_with(1, tempPath("sweep_j1.jsonl"));
    const auto parallel =
        run_with(4, tempPath("sweep_j4.jsonl"));

    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string left = readFile(serial[i].tracePath);
        const std::string right = readFile(parallel[i].tracePath);
        ASSERT_FALSE(left.empty());
        EXPECT_EQ(left, right) << "point " << i << " ("
                               << points[i].label << ")";
        std::remove(serial[i].tracePath.c_str());
        std::remove(parallel[i].tracePath.c_str());
    }
}

TEST(TraceReplay, SweepTracePathDerivation)
{
    EXPECT_EQ(sweepTracePath("fig4.jsonl", 2), "fig4.2.jsonl");
    EXPECT_EQ(sweepTracePath("out/fig4", 0), "out/fig4.0.jsonl");
}

// ---------------------------------------------------------------------
// Perturbation detection

TEST(TracePerturbation, ThresholdChangeIsReportedAtFirstDivergence)
{
    // The acceptance check: nudging the off-load threshold by one must
    // fail the diff, and the first divergent record must be the first
    // decision consulting the threshold (a lookup event), not some
    // distant downstream effect.
    SystemConfig base = smallTracedConfig();
    SystemConfig nudged = base;
    nudged.staticThreshold = base.staticThreshold + 1;

    const TraceCapture left = captureTrace(base);
    const TraceCapture right = captureTrace(nudged);
    const TraceDiffReport report =
        diffTraceLines(left.lines, right.lines);
    ASSERT_FALSE(report.identical);
    ASSERT_LT(report.divergenceLine, left.lines.size());
    EXPECT_NE(report.left.find("\"k\":\"lookup\""), std::string::npos)
        << report.format();
    EXPECT_NE(report.left.find("\"n\":1000"), std::string::npos)
        << report.format();
    EXPECT_NE(report.right.find("\"n\":1001"), std::string::npos)
        << report.format();
}

TEST(TracePerturbation, MigrationLatencyChangeDiverges)
{
    SystemConfig base = smallTracedConfig();
    SystemConfig nudged = base;
    nudged.migrationOneWayCycles += 1;
    const TraceCapture left = captureTrace(base);
    const TraceCapture right = captureTrace(nudged);
    EXPECT_FALSE(diffTraceLines(left.lines, right.lines).identical);
}

// ---------------------------------------------------------------------
// Emission coverage

TEST(TraceContent, DisabledTracingEmitsNothingAndMatchesResults)
{
    // A trace-attached run must produce the same simulation results as
    // a plain run: recording is observation only.
    const SystemConfig config = smallTracedConfig();
    const SimResults plain = ExperimentRunner::run(config);
    const TraceCapture traced = captureTrace(config);
    EXPECT_EQ(plain.makespan, traced.results.makespan);
    EXPECT_EQ(plain.retired, traced.results.retired);
    EXPECT_EQ(plain.invocations, traced.results.invocations);
    EXPECT_EQ(plain.offloaded, traced.results.offloaded);
    EXPECT_EQ(plain.finalThreshold, traced.results.finalThreshold);
}

TEST(TraceContent, BeginDecisionEndArePaired)
{
    const TraceCapture capture = captureTrace(smallTracedConfig());
    std::size_t begins = 0, decisions = 0, ends = 0, measures = 0;
    for (const std::string &line : capture.lines) {
        if (line.find("\"k\":\"begin\"") != std::string::npos)
            ++begins;
        else if (line.find("\"k\":\"decision\"") != std::string::npos)
            ++decisions;
        else if (line.find("\"k\":\"end\"") != std::string::npos)
            ++ends;
        else if (line.find("\"k\":\"measure\"") != std::string::npos)
            ++measures;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, decisions);
    EXPECT_EQ(measures, 1u);
    // Ends can lag begins by at most the in-flight off-loads at run
    // end; with the quota-bounded runs here they must balance.
    EXPECT_LE(ends, begins);
    EXPECT_GE(ends + 1, begins);
}

TEST(TraceContent, OffloadedInvocationsEmitMigrationPairs)
{
    const TraceCapture capture = captureTrace(smallTracedConfig());
    std::size_t to_os = 0, to_user = 0;
    for (const std::string &line : capture.lines) {
        if (line.find("\"k\":\"migrate\"") == std::string::npos)
            continue;
        if (line.find("\"dir\":\"os\"") != std::string::npos)
            ++to_os;
        else if (line.find("\"dir\":\"user\"") != std::string::npos)
            ++to_user;
    }
    EXPECT_GT(to_os, 0u) << "expected off-loads in the traced run";
    EXPECT_LE(to_user, to_os);
    EXPECT_GE(to_user + 1, to_os);
}

TEST(TraceContent, DynamicRunEmitsEpochAndThresholdEvents)
{
    // Derby with short epochs: the controller moves N during the
    // measured region, so nswitch records with n0 != n must appear,
    // one per switch the results count.
    SystemConfig config = ExperimentRunner::hardwareDynamicConfig(
        WorkloadKind::Derby, 100);
    config.warmupInstructions = 10'000;
    config.measureInstructions = 200'000;
    config.thresholdConfig.epochScale = 0.0004;
    const TraceCapture capture = captureTrace(config);

    const auto field = [](const std::string &line, const char *key) {
        const std::string tag = std::string("\"") + key + "\":";
        const std::size_t at = line.find(tag);
        if (at == std::string::npos) {
            ADD_FAILURE() << "no " << key << " in " << line;
            return 0ull;
        }
        return std::stoull(line.substr(at + tag.size()));
    };
    std::size_t epochs = 0, records = 0, switches = 0;
    std::uint64_t last_round = 0;
    for (const std::string &line : capture.lines) {
        if (line.find("\"k\":\"epoch\"") != std::string::npos) {
            ++epochs;
            continue;
        }
        if (line.find("\"k\":\"nswitch\"") == std::string::npos)
            continue;
        const std::uint64_t round = field(line, "round");
        if (records++ > 0) {
            EXPECT_GT(round, last_round) << line;
        }
        last_round = round;
        switches += field(line, "n0") != field(line, "n") ? 1 : 0;
    }
    EXPECT_GT(epochs, 0u);
    EXPECT_GE(switches, 1u);
    EXPECT_EQ(switches, capture.results.thresholdSwitches);
    EXPECT_EQ(records, switches + 1); // plus the initial N record
}

/** The `fb` of every `epoch` record and the `n` each one ended with. */
void
epochRecords(const TraceCapture &capture, std::vector<double> &feedback,
             std::vector<InstCount> &thresholds)
{
    for (const std::string &line : capture.lines) {
        if (line.find("\"k\":\"epoch\"") == std::string::npos)
            continue;
        const std::size_t fb = line.find("\"fb\":");
        const std::size_t n = line.find("\"n\":");
        ASSERT_NE(fb, std::string::npos) << line;
        ASSERT_NE(n, std::string::npos) << line;
        feedback.push_back(std::stod(line.substr(fb + 5)));
        thresholds.push_back(std::stoull(line.substr(n + 4)));
    }
}

TEST(TraceContent, L2HitRateFeedbackDrivesTheController)
{
    // The paper's own feedback metric: HI dynamic-N fed the pooled L2
    // hit rate of the epoch that just ended.
    SystemConfig config = ExperimentRunner::hardwareDynamicConfig(
        WorkloadKind::Derby, 100);
    config.warmupInstructions = 10'000;
    config.measureInstructions = 200'000;
    config.thresholdConfig.epochScale = 0.0004;
    // A 2-point delta, on hit rates of 0.2-0.6 in this short run, is
    // where comparing additively and relatively part ways.
    config.thresholdConfig.improvementDelta = 0.02;
    SystemConfig ipc = config;
    config.thresholdFeedback = SystemConfig::ThresholdFeedback::L2HitRate;
    ipc.thresholdFeedback = SystemConfig::ThresholdFeedback::WindowIpc;
    const TraceCapture capture = captureTrace(config);

    std::vector<double> feedback, ipc_feedback;
    std::vector<InstCount> thresholds, ipc_thresholds;
    epochRecords(capture, feedback, thresholds);
    epochRecords(captureTrace(ipc), ipc_feedback, ipc_thresholds);
    ASSERT_GE(feedback.size(), 4u);
    for (double fb : feedback) {
        EXPECT_GE(fb, 0.0);
        EXPECT_LE(fb, 1.0);
    }
    EXPECT_NE(feedback, ipc_feedback);

    // A controller that compares hit rates additively ("1 % better L2
    // hit rate"), fed the same feedback, takes every decision the
    // system's controller took; one that compares relatively does not.
    ASSERT_FALSE(config.thresholdConfig.relativeImprovement);
    ThresholdConfig relative_config = config.thresholdConfig;
    relative_config.relativeImprovement = true;
    ThresholdController additive(config.thresholdConfig);
    ThresholdController relative(relative_config);
    additive.begin(capture.results.warmupPrivFraction);
    relative.begin(capture.results.warmupPrivFraction);
    bool diverged = false;
    for (std::size_t e = 0; e < feedback.size(); ++e) {
        additive.onEpochEnd(feedback[e]);
        relative.onEpochEnd(feedback[e]);
        EXPECT_EQ(additive.currentThreshold(), thresholds[e]) << "epoch " << e;
        diverged |= relative.currentThreshold() != thresholds[e];
    }
    EXPECT_TRUE(diverged);
    EXPECT_EQ(additive.switches(), capture.results.thresholdSwitches);
}

} // namespace
} // namespace oscar
