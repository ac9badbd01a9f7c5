/**
 * @file
 * Tests for the metric registry, the `oscar.metrics.v1` export/reader
 * round trip, and the system-wide instrumentation invariants: registry
 * totals must agree exactly with the existing Stats aggregates over
 * the measured region, attaching a registry must not perturb traced
 * behaviour, and sweep metrics files must be byte-identical across job
 * counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/metrics_reader.hh"
#include "system/metrics_capture.hh"
#include "system/sweep.hh"
#include "system/system.hh"

namespace oscar
{
namespace
{

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

SystemConfig
smallConfig()
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 1000, 100);
    config.warmupInstructions = 10'000;
    config.measureInstructions = 30'000;
    return config;
}

// ---------------------------------------------------------------------
// Registry units

TEST(MetricRegistry, CounterUpdatesAreVisibleInSeriesValues)
{
    MetricRegistry registry;
    std::uint64_t hits = 0;
    registry.counterFn("mem.hits", [&] { return hits; });
    EXPECT_EQ(registry.seriesValue("mem.hits"), 0.0);
    hits += 3;
    ++hits;
    EXPECT_EQ(registry.seriesValue("mem.hits"), 4.0);
    EXPECT_EQ(registry.series().size(), 1u);
    EXPECT_EQ(registry.series()[0].kind, MetricKind::Counter);
}

TEST(MetricRegistry, CounterPointersStayStableAcrossRegistrations)
{
    MetricRegistry registry;
    std::uint64_t first = 0;
    std::uint64_t other = 0;
    registry.counterFn("a", [&] { return first; });
    // Enough registrations to force internal growth.
    for (int i = 0; i < 100; ++i)
        registry.counterFn(std::string("c").append(std::to_string(i)),
                           [&] { return other; });
    ++first;
    EXPECT_EQ(registry.seriesValue("a"), 1.0);
}

TEST(MetricRegistry, PolledCounterAndGaugeReadAtSampleTime)
{
    MetricRegistry registry;
    std::uint64_t backing = 0;
    double level = 0.0;
    registry.counterFn("ext.count", [&] { return backing; });
    registry.gauge("ext.level", [&] { return level; });

    backing = 7;
    level = 2.5;
    registry.takeSample(100, 1000);
    const auto &row = registry.samples().back();
    EXPECT_EQ(row.values[0], 7.0);
    EXPECT_EQ(row.values[1], 2.5);
    EXPECT_EQ(registry.series()[1].kind, MetricKind::Gauge);
}

TEST(MetricRegistry, HistogramExpandsToDerivedSeries)
{
    MetricRegistry registry;
    LatencyHistogram hist;
    registry.histogramFn("os.queue.wait", hist);
    ASSERT_EQ(registry.series().size(), 4u);
    EXPECT_EQ(registry.series()[0].name, "os.queue.wait.count");
    EXPECT_EQ(registry.series()[1].name, "os.queue.wait.mean");
    EXPECT_EQ(registry.series()[2].name, "os.queue.wait.p50");
    EXPECT_EQ(registry.series()[3].name, "os.queue.wait.p99");
    // The component may restart its histogram, so every series,
    // count included, is a gauge.
    for (const MetricRegistry::Series &series : registry.series())
        EXPECT_EQ(series.kind, MetricKind::Gauge) << series.name;

    hist.add(4);
    hist.add(6);
    EXPECT_EQ(registry.seriesValue("os.queue.wait.count"), 2.0);
    EXPECT_EQ(registry.seriesValue("os.queue.wait.mean"), 5.0);
    EXPECT_EQ(registry.seriesValue("os.queue.wait.p50"), 6.0);
    EXPECT_EQ(registry.seriesValue("os.queue.wait.p99"), 6.0);
    hist.reset();
    EXPECT_EQ(registry.seriesValue("os.queue.wait.count"), 0.0);
}

TEST(MetricRegistry, DuplicateNameIsFatal)
{
    ScopedFatalThrows guard;
    MetricRegistry registry;
    const auto zero = [] { return std::uint64_t{0}; };
    registry.counterFn("x.y", zero);
    EXPECT_THROW(registry.counterFn("x.y", zero), FatalError);
    EXPECT_THROW(registry.gauge("x.y", [] { return 0.0; }), FatalError);
}

TEST(MetricRegistry, HistogramSeriesNamesAreClaimedToo)
{
    // Regression: only a histogram's base name used to be claimed, so
    // a counter named like one of its derived series wrote a second
    // column with the same name.
    ScopedFatalThrows guard;
    MetricRegistry registry;
    const LatencyHistogram hist;
    const auto zero = [] { return std::uint64_t{0}; };
    registry.histogramFn("a", hist);
    EXPECT_THROW(registry.counterFn("a.count", zero), FatalError);
    EXPECT_THROW(registry.gauge("a.p99", [] { return 0.0; }), FatalError);
    registry.counterFn("b.mean", zero);
    EXPECT_THROW(registry.histogramFn("b", hist), FatalError);
    // The base name itself is not a series.
    registry.counterFn("a", zero);
}

TEST(MetricRegistry, InvalidNameIsFatal)
{
    ScopedFatalThrows guard;
    MetricRegistry registry;
    const auto zero = [] { return std::uint64_t{0}; };
    EXPECT_THROW(registry.counterFn("", zero), FatalError);
    EXPECT_THROW(registry.counterFn("Upper.case", zero), FatalError);
    EXPECT_THROW(registry.counterFn("space here", zero), FatalError);
}

TEST(MetricRegistry, UnknownSeriesValueIsFatal)
{
    ScopedFatalThrows guard;
    MetricRegistry registry;
    EXPECT_THROW(registry.seriesValue("no.such"), FatalError);
    EXPECT_EQ(registry.seriesIndex("no.such"), -1);
}

TEST(MetricRegistry, RegistrationAfterSamplingIsFatal)
{
    ScopedFatalThrows guard;
    MetricRegistry registry;
    const auto zero = [] { return std::uint64_t{0}; };
    registry.counterFn("a", zero);
    registry.takeSample(1, 1);
    EXPECT_THROW(registry.counterFn("b", zero), FatalError);
}

TEST(MetricRegistry, EqualInstantSampleIsSkippedUnlessRefreshed)
{
    MetricRegistry registry;
    std::uint64_t count = 1;
    registry.counterFn("a", [&] { return count; });
    const std::size_t first = registry.takeSample(100, 10);
    count = 5;

    // Same instant: the existing row covers it and keeps its values.
    const std::size_t again = registry.takeSample(100, 12);
    EXPECT_EQ(again, first);
    EXPECT_EQ(registry.samples().back().values[0], 1.0);

    // Forced end-of-run flavour: same row, values re-read.
    const std::size_t refreshed =
        registry.takeSample(100, 12, /*refresh_equal=*/true);
    EXPECT_EQ(refreshed, first);
    EXPECT_EQ(registry.samples().size(), 1u);
    EXPECT_EQ(registry.samples().back().values[0], 5.0);
    EXPECT_EQ(registry.samples().back().cycle, 12u);
}

TEST(MetricRegistryDeath, NonMonotoneInstantPanics)
{
    MetricRegistry registry;
    registry.counterFn("a", [] { return std::uint64_t{0}; });
    registry.takeSample(100, 10);
    EXPECT_DEATH(registry.takeSample(99, 11), "");
}

TEST(MetricRegistry, MeasurementStartDefaultsToNoSample)
{
    MetricRegistry registry;
    EXPECT_EQ(registry.measurementStartSample(),
              MetricRegistry::kNoSample);
    registry.counterFn("a", [] { return std::uint64_t{0}; });
    const std::size_t row = registry.takeSample(10, 10);
    registry.setMeasurementStartSample(row);
    EXPECT_EQ(registry.measurementStartSample(), row);
}

// ---------------------------------------------------------------------
// Export / reader round trip

TEST(MetricsDocument, RoundTripsThroughReader)
{
    MetricRegistry registry(/*sample_every=*/500);
    std::uint64_t count = 10;
    registry.counterFn("a.count", [&] { return count; });
    double level = 1.5;
    registry.gauge("a.level", [&] { return level; });

    registry.setMeasurementStartSample(registry.takeSample(500, 100));
    count = 25;
    level = -0.25;
    registry.takeSample(1000, 220);

    const SystemConfig config = smallConfig();
    const std::string doc = metricsDocument(registry, config);
    const MetricsFile file = parseMetricsDocument(doc);
    ASSERT_TRUE(file.ok) << file.error;
    EXPECT_EQ(file.schema, kMetricsSchema);
    EXPECT_EQ(file.sampleEvery, 500u);
    EXPECT_EQ(file.measureSample, 0);
    ASSERT_EQ(file.series.size(), 2u);
    EXPECT_EQ(file.series[0].name, "a.count");
    EXPECT_EQ(file.series[0].kind, MetricKind::Counter);
    EXPECT_EQ(file.series[1].kind, MetricKind::Gauge);

    ASSERT_EQ(file.rows.size(), 2u);
    EXPECT_EQ(file.rows[0].instant, 500u);
    EXPECT_EQ(file.rows[0].cycle, 100u);
    EXPECT_EQ(file.rows[0].cum[0], 10.0);
    EXPECT_EQ(file.rows[1].cum[0], 25.0);
    EXPECT_EQ(file.rows[1].delta[0], 15.0);
    EXPECT_EQ(file.rows[1].cum[1], -0.25);

    EXPECT_TRUE(validateMetricsFile(file).empty());
}

TEST(MetricsDocument, WriterAndFileLoaderAgree)
{
    MetricRegistry registry;
    registry.counterFn("a", [] { return std::uint64_t{3}; });
    registry.takeSample(10, 10);

    const SystemConfig config = smallConfig();
    const std::string path = tempPath("metrics_roundtrip.jsonl");
    ASSERT_TRUE(writeMetricsFile(registry, config, path));
    EXPECT_EQ(readFile(path), metricsDocument(registry, config));
    const MetricsFile file = loadMetricsFile(path);
    EXPECT_TRUE(file.ok) << file.error;
    std::remove(path.c_str());
}

TEST(MetricsReader, RejectsGarbage)
{
    EXPECT_FALSE(parseMetricsDocument("").ok);
    EXPECT_FALSE(parseMetricsDocument("not json\n").ok);
    EXPECT_FALSE(
        parseMetricsDocument("{\"schema\":\"oscar.metrics.v1\"}\n").ok);
    EXPECT_FALSE(loadMetricsFile("/no/such/file.jsonl").ok);
}

TEST(MetricsValidator, FlagsBrokenInvariants)
{
    MetricRegistry registry;
    std::uint64_t count = 1;
    registry.counterFn("a", [&] { return count; });
    registry.takeSample(10, 10);
    count = 2;
    registry.takeSample(20, 20);
    MetricsFile file =
        parseMetricsDocument(metricsDocument(registry, smallConfig()));
    ASSERT_TRUE(file.ok);
    ASSERT_TRUE(validateMetricsFile(file).empty());

    MetricsFile broken_delta = file;
    broken_delta.rows[1].delta[0] += 1.0;
    EXPECT_FALSE(validateMetricsFile(broken_delta).empty());

    MetricsFile broken_instant = file;
    broken_instant.rows[1].instant = broken_instant.rows[0].instant;
    EXPECT_FALSE(validateMetricsFile(broken_instant).empty());

    MetricsFile broken_index = file;
    broken_index.rows[1].sample = 5;
    EXPECT_FALSE(validateMetricsFile(broken_index).empty());

    MetricsFile broken_counter = file;
    broken_counter.rows[1].cum[0] = 0.0;
    broken_counter.rows[1].delta[0] = -1.0;
    EXPECT_FALSE(validateMetricsFile(broken_counter).empty());

    MetricsFile broken_width = file;
    broken_width.rows[1].cum.push_back(0.0);
    EXPECT_FALSE(validateMetricsFile(broken_width).empty());

    MetricsFile broken_schema = file;
    broken_schema.schema = "oscar.metrics.v0";
    EXPECT_FALSE(validateMetricsFile(broken_schema).empty());
}

TEST(MetricsValidator, RejectsDuplicateSeriesNames)
{
    // A document that names one series twice parses (the reader keeps
    // columns positional), but seriesIndex could only ever find the
    // first, so the validator must refuse it.
    MetricRegistry registry;
    registry.counterFn("a.count", [] { return std::uint64_t{1}; });
    registry.gauge("b", [] { return 2.0; });
    registry.takeSample(10, 10);
    std::string doc = metricsDocument(registry, smallConfig());
    const std::string renamed = "\"name\":\"b\"";
    const std::size_t at = doc.find(renamed);
    ASSERT_NE(at, std::string::npos) << doc;
    doc.replace(at, renamed.size(), "\"name\":\"a.count\"");

    const MetricsFile file = parseMetricsDocument(doc);
    ASSERT_TRUE(file.ok) << file.error;
    ASSERT_EQ(file.series.size(), 2u);
    const std::vector<std::string> problems = validateMetricsFile(file);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("duplicates name 'a.count'"),
              std::string::npos)
        << problems[0];
}

// ---------------------------------------------------------------------
// System instrumentation

/** A K=2 work-stealing serving point: every polled counter is live. */
SystemConfig
stealingServingConfig()
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/0, /*migration_one_way=*/100);
    config.userCores = 4;
    config.topology.osCores = 2;
    config.topology.numaNodes = 2;
    config.topology.placement = OsPlacement::Spread;
    config.topology.dispatch = OsDispatchPolicy::WorkStealing;
    config.topology.spillDepth = 1;
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->meanInterarrivalCycles = 20'000.0;
    serving->warmupRequests = 20;
    serving->measureRequests = 80;
    config.serving = serving;
    return config;
}

TEST(MetricsSystem, RegistryTotalsMatchStatsAggregates)
{
    // The registry polls the components' lifetime counters and
    // SimResults is lifetime minus the measurement mark, so "live
    // value minus the measurement-start row" must equal the results
    // exactly.
    for (const SystemConfig &config :
         {smallConfig(), stealingServingConfig()}) {
        const bool serving = config.serving != nullptr;
        SCOPED_TRACE(serving ? "k2-stealing-serving" : "k1-segments");
        MetricRegistry registry(/*sample_every=*/10'000);
        System system(config);
        system.setMetricRegistry(&registry);
        const SimResults results = system.run();

        ASSERT_NE(registry.measurementStartSample(),
                  MetricRegistry::kNoSample);
        const MetricRegistry::Sample &mark =
            registry.samples()[registry.measurementStartSample()];
        auto measured = [&](const std::string &name) {
            const std::ptrdiff_t idx = registry.seriesIndex(name);
            EXPECT_GE(idx, 0) << name;
            return registry.seriesValue(name) -
                   mark.values[static_cast<std::size_t>(idx)];
        };

        for (unsigned c = 0; c < system.memory().numCores(); ++c) {
            const CoreMemStats stats = system.measuredMemStats(c);
            const std::string p = "mem.core" + std::to_string(c) + ".";
            EXPECT_EQ(measured(p + "l1i.hits"),
                      static_cast<double>(stats.l1i.hits()));
            EXPECT_EQ(measured(p + "l1i.accesses"),
                      static_cast<double>(stats.l1i.total()));
            EXPECT_EQ(measured(p + "l1d.hits"),
                      static_cast<double>(stats.l1d.hits()));
            EXPECT_EQ(measured(p + "l1d.accesses"),
                      static_cast<double>(stats.l1d.total()));
            EXPECT_EQ(measured(p + "l2.user.hits"),
                      static_cast<double>(stats.l2User.hits()));
            EXPECT_EQ(measured(p + "l2.user.accesses"),
                      static_cast<double>(stats.l2User.total()));
            EXPECT_EQ(measured(p + "l2.os.hits"),
                      static_cast<double>(stats.l2Os.hits()));
            EXPECT_EQ(measured(p + "l2.os.accesses"),
                      static_cast<double>(stats.l2Os.total()));
            EXPECT_EQ(measured(p + "c2c_transfers"),
                      static_cast<double>(stats.c2cTransfers));
            EXPECT_EQ(measured(p + "inval.sent"),
                      static_cast<double>(stats.invalidationsSent));
            EXPECT_EQ(measured(p + "inval.received"),
                      static_cast<double>(stats.invalidationsReceived));
            EXPECT_EQ(measured(p + "upgrades"),
                      static_cast<double>(stats.upgrades));
            EXPECT_EQ(measured(p + "memory_fetches"),
                      static_cast<double>(stats.memoryFetches));
        }

        EXPECT_EQ(measured("sys.retired.user") +
                      measured("sys.retired.os"),
                  static_cast<double>(results.retired));
        EXPECT_EQ(measured("sys.invocations"),
                  static_cast<double>(results.invocations));
        EXPECT_EQ(measured("sys.offloads"),
                  static_cast<double>(results.offloaded));
        double observations = 0.0;
        for (unsigned t = 0; t < config.userCores; ++t)
            observations +=
                measured("pred.t" + std::to_string(t) + ".observations");
        EXPECT_EQ(observations,
                  static_cast<double>(results.accuracy.samples()));
        EXPECT_EQ(measured("numa.migrations.intra"),
                  static_cast<double>(results.numaMigrationsIntra));
        EXPECT_EQ(measured("numa.migrations.inter"),
                  static_cast<double>(results.numaMigrationsInter));
        if (!serving)
            continue;

        EXPECT_EQ(measured("serving.offered"),
                  static_cast<double>(results.requestsOffered));
        EXPECT_EQ(measured("serving.completed"),
                  static_cast<double>(results.requestsCompleted));
        EXPECT_EQ(measured("numa.steals"),
                  static_cast<double>(results.steals));
        EXPECT_EQ(measured("numa.spills"),
                  static_cast<double>(results.spills));

        // Histograms restart at measurement start, so their final row
        // is the measured-region distribution itself.
        auto value_at = [&](const MetricRegistry::Sample &row,
                            const std::string &name) {
            const std::ptrdiff_t idx = registry.seriesIndex(name);
            EXPECT_GE(idx, 0) << name;
            return idx < 0 ? -1.0
                           : row.values[static_cast<std::size_t>(idx)];
        };
        auto final_value = [&](const std::string &name) {
            return value_at(registry.samples().back(), name);
        };
        auto expect_histogram = [&](const std::string &name,
                                    const LatencyHistogram &hist) {
            SCOPED_TRACE(name);
            EXPECT_GT(hist.count(), 0u);
            EXPECT_EQ(value_at(mark, name + ".count"), 0.0);
            EXPECT_EQ(final_value(name + ".count"),
                      static_cast<double>(hist.count()));
            EXPECT_EQ(final_value(name + ".mean"), hist.mean());
            EXPECT_EQ(final_value(name + ".p50"),
                      static_cast<double>(hist.quantile(0.5)));
            EXPECT_EQ(final_value(name + ".p99"),
                      static_cast<double>(hist.quantile(0.99)));
        };
        ASSERT_EQ(results.osQueues.size(), 2u);
        for (const OsQueueResult &q : results.osQueues) {
            expect_histogram("os.queue.q" + std::to_string(q.queue) +
                                 ".wait",
                             q.wait);
        }
        expect_histogram("serving.latency", results.requestLatency);

        // The point must exercise every family it checks.
        EXPECT_GT(results.numaMigrationsInter, 0u);
        EXPECT_GT(results.steals, 0u);
        EXPECT_GT(results.spills, 0u);
    }
}

TEST(MetricsSystem, DynamicControllerSeriesMatchResults)
{
    SystemConfig config = ExperimentRunner::hardwareDynamicConfig(
        WorkloadKind::Apache, 100);
    // Long enough for several controller epochs (~125k instructions
    // each at the default scaling).
    config.warmupInstructions = 10'000;
    config.measureInstructions = 400'000;

    MetricRegistry registry(/*sample_every=*/100'000);
    System system(config);
    system.setMetricRegistry(&registry);
    const SimResults results = system.run();

    EXPECT_EQ(registry.seriesValue("controller.n"),
              static_cast<double>(results.finalThreshold));
    EXPECT_EQ(registry.seriesValue("controller.switches"),
              static_cast<double>(results.thresholdSwitches));
    EXPECT_GE(registry.seriesValue("controller.epochs"), 1.0);
}

TEST(MetricsSystem, SamplerInstantsAreStrictlyMonotone)
{
    const SystemConfig config = smallConfig();
    MetricRegistry registry(/*sample_every=*/5'000);
    System system(config);
    system.setMetricRegistry(&registry);
    (void)system.run();

    const auto &rows = registry.samples();
    ASSERT_GE(rows.size(), 3u);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_GT(rows[i].instant, rows[i - 1].instant) << "row " << i;
}

TEST(MetricsSystem, ZeroIntervalKeepsOnlyEndpointSamples)
{
    const SystemConfig config = smallConfig();
    MetricRegistry registry(/*sample_every=*/0);
    System system(config);
    system.setMetricRegistry(&registry);
    (void)system.run();

    // Only the measurement-start mark and the forced final sample.
    ASSERT_EQ(registry.samples().size(), 2u);
    EXPECT_EQ(registry.measurementStartSample(), 0u);
}

TEST(MetricsSystem, AttachingRegistryLeavesTraceAndResultsIdentical)
{
    SweepPoint plain;
    plain.label = "plain";
    plain.config = smallConfig();
    plain.normalize = false;
    plain.tracePath = tempPath("mx_plain.trace.jsonl");

    SweepPoint metered = plain;
    metered.label = "metered";
    metered.tracePath = tempPath("mx_metered.trace.jsonl");
    metered.metricsPath = tempPath("mx_metered.metrics.jsonl");
    metered.metricsSampleEvery = 10'000;

    const SweepPointResult a = ParallelSweepRunner::runPoint(plain, 0);
    const SweepPointResult b = ParallelSweepRunner::runPoint(metered, 0);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;

    // Metrics are observation-only: the traced behaviour and results
    // must be byte-identical with and without a registry attached.
    const std::string left = readFile(plain.tracePath);
    const std::string right = readFile(metered.tracePath);
    ASSERT_FALSE(left.empty());
    EXPECT_EQ(left, right);
    EXPECT_EQ(a.results.throughput, b.results.throughput);
    EXPECT_EQ(a.results.retired, b.results.retired);
    EXPECT_EQ(a.results.invocations, b.results.invocations);
    EXPECT_EQ(a.results.offloaded, b.results.offloaded);

    EXPECT_EQ(a.metricsPath, "");
    EXPECT_EQ(b.metricsPath, metered.metricsPath);
    EXPECT_NE(sweepPointResultsJson(b).find("\"metrics_path\":"),
              std::string::npos);

    const MetricsFile file = loadMetricsFile(metered.metricsPath);
    EXPECT_TRUE(file.ok) << file.error;
    EXPECT_TRUE(validateMetricsFile(file).empty());

    std::remove(plain.tracePath.c_str());
    std::remove(metered.tracePath.c_str());
    std::remove(metered.metricsPath.c_str());
}

TEST(MetricsSystem, SweepMetricsFilesAreIdenticalAcrossJobCounts)
{
    std::vector<SweepPoint> points;
    for (InstCount n : {100, 1000, 10000}) {
        SweepPoint point;
        point.label = "N=" + std::to_string(n);
        point.config = smallConfig();
        point.config.staticThreshold = n;
        point.normalize = false;
        points.push_back(std::move(point));
    }

    auto run_with = [&](unsigned jobs, const std::string &base) {
        std::vector<SweepPoint> copy = points;
        applySweepMetricsPaths(copy, base, /*sample_every=*/10'000);
        ParallelSweepRunner runner({jobs});
        const auto results = runner.run(copy);
        for (const auto &result : results)
            EXPECT_TRUE(result.ok) << result.error;
        return copy;
    };

    const auto serial = run_with(1, tempPath("mx_j1.jsonl"));
    const auto parallel = run_with(4, tempPath("mx_j4.jsonl"));

    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string left = readFile(serial[i].metricsPath);
        const std::string right = readFile(parallel[i].metricsPath);
        ASSERT_FALSE(left.empty());
        EXPECT_EQ(left, right) << "point " << i;
        const std::vector<std::string> problems =
            validateMetricsFile(parseMetricsDocument(left));
        EXPECT_TRUE(problems.empty())
            << "point " << i << ": " << problems.front();
        std::remove(serial[i].metricsPath.c_str());
        std::remove(parallel[i].metricsPath.c_str());
    }
}

TEST(MetricsSystem, MetricsPathDerivationMatchesTraces)
{
    std::vector<SweepPoint> points(2);
    applySweepMetricsPaths(points, "fig4.jsonl", 500);
    EXPECT_EQ(points[0].metricsPath, "fig4.0.jsonl");
    EXPECT_EQ(points[1].metricsPath, "fig4.1.jsonl");
    EXPECT_EQ(points[1].metricsSampleEvery, 500u);
    applySweepMetricsPaths(points, "");
    EXPECT_EQ(points[0].metricsPath, "");
}

} // namespace
} // namespace oscar
