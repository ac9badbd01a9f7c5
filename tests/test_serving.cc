/**
 * @file
 * System-level tests of the request-serving layer: end-to-end runs
 * driven by the client-fleet front-end, latency accounting, metric
 * cross-checks, and sweep determinism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/metrics.hh"
#include "system/experiment.hh"
#include "system/sweep.hh"
#include "system/system.hh"

namespace oscar
{
namespace
{

std::shared_ptr<const ServingConfig>
quickServing(ArrivalModel arrival = ArrivalModel::OpenLoop)
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = arrival;
    serving->meanInterarrivalCycles = 8'000.0;
    serving->clientsPerCore = 3;
    serving->meanThinkCycles = 10'000.0;
    serving->tenants = 8;
    serving->meanSegments = 2.0;
    serving->warmupRequests = 30;
    serving->measureRequests = 120;
    return serving;
}

SystemConfig
servingConfig(ArrivalModel arrival = ArrivalModel::OpenLoop)
{
    SystemConfig config;
    config.workload = WorkloadKind::Apache;
    config.serving = quickServing(arrival);
    return config;
}

SystemConfig
servingOffloadConfig(ArrivalModel arrival = ArrivalModel::OpenLoop)
{
    SystemConfig config = servingConfig(arrival);
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    return config;
}

TEST(Serving, OpenLoopRunCompletesTheMeasuredRegion)
{
    System system(servingConfig());
    const SimResults r = system.run();
    EXPECT_TRUE(r.servingEnabled);
    EXPECT_EQ(r.requestsCompleted, 120u);
    EXPECT_EQ(r.requestLatency.count(), 120u);
    EXPECT_GT(r.requestThroughput, 0.0);
    EXPECT_GT(r.requestLatency.min(), 0u);
    EXPECT_GE(r.requestLatency.quantile(0.99),
              r.requestLatency.quantile(0.50));
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.invocations, 0u);
}

TEST(Serving, ClassicRunsReportServingDisabled)
{
    SystemConfig config;
    config.workload = WorkloadKind::Apache;
    config.warmupInstructions = 60'000;
    config.measureInstructions = 250'000;
    System system(config);
    const SimResults r = system.run();
    EXPECT_FALSE(r.servingEnabled);
    EXPECT_EQ(r.requestsCompleted, 0u);
    EXPECT_EQ(r.requestLatency.count(), 0u);
}

TEST(Serving, DeterministicAcrossRuns)
{
    System a(servingOffloadConfig());
    System b(servingOffloadConfig());
    const SimResults ra = a.run();
    const SimResults rb = b.run();
    EXPECT_EQ(ra.makespan, rb.makespan);
    EXPECT_EQ(ra.requestsOffered, rb.requestsOffered);
    EXPECT_EQ(ra.requestLatency.toString(),
              rb.requestLatency.toString());
    EXPECT_DOUBLE_EQ(ra.requestThroughput, rb.requestThroughput);
}

TEST(Serving, DifferentSeedsDiffer)
{
    SystemConfig config = servingConfig();
    config.seed = 1;
    System a(config);
    config.seed = 2;
    System b(config);
    EXPECT_NE(a.run().requestLatency.toString(),
              b.run().requestLatency.toString());
}

TEST(Serving, ClosedLoopCompletesWithBoundedInFlight)
{
    SystemConfig config = servingConfig(ArrivalModel::ClosedLoop);
    config.userCores = 2;
    System system(config);
    const SimResults r = system.run();
    EXPECT_EQ(r.requestsCompleted, 120u);
    // A closed loop admits at most clientsPerCore * cores requests, so
    // offered can lead completed only by the fleet size.
    EXPECT_LE(r.requestsOffered,
              r.requestsCompleted + 2u * 3u);
    EXPECT_GT(r.requestThroughput, 0.0);
}

TEST(Serving, OffloadingEngagesUnderServing)
{
    System system(servingOffloadConfig());
    const SimResults r = system.run();
    EXPECT_EQ(r.requestsCompleted, 120u);
    EXPECT_GT(r.offloaded, 0u);
    EXPECT_GT(r.osCoreUtilization, 0.0);
}

TEST(Serving, LatencyCoversQueueingAndService)
{
    // With one server thread and brisk arrivals, some request must
    // wait for dispatch, so p99 latency strictly exceeds the fastest
    // request's service time.
    System system(servingConfig());
    const SimResults r = system.run();
    EXPECT_GT(r.requestLatency.quantile(0.99), r.requestLatency.min());
    EXPECT_GT(r.requestDispatchWait.max(), 0.0);
}

TEST(Serving, MetricsCrossCheckCounters)
{
    // Gauges are polled live, so the system must outlive the
    // seriesValue queries — build it in this scope instead of going
    // through ExperimentRunner::run.
    MetricRegistry registry;
    System system(servingOffloadConfig());
    system.setMetricRegistry(&registry);
    const SimResults r = system.run();
    // Registry counters cover the whole run (never reset), so
    // completed = warmup + measured exactly; offered includes at least
    // those and any arrivals still queued or in flight at the end.
    EXPECT_DOUBLE_EQ(registry.seriesValue("serving.completed"),
                     30.0 + 120.0);
    EXPECT_GE(registry.seriesValue("serving.offered"), 150.0);
    EXPECT_GE(registry.seriesValue("serving.offered"),
              static_cast<double>(r.requestsOffered));
    // The latency series poll the measured-region histogram itself.
    EXPECT_EQ(registry.seriesValue("serving.latency.count"), 120.0);
    EXPECT_EQ(registry.seriesValue("serving.latency.count"),
              static_cast<double>(r.requestLatency.count()));
    EXPECT_EQ(registry.seriesValue("serving.latency.mean"),
              r.requestLatency.mean());
    EXPECT_EQ(registry.seriesValue("serving.latency.p50"),
              static_cast<double>(r.requestLatency.quantile(0.5)));
    EXPECT_EQ(registry.seriesValue("serving.latency.p99"),
              static_cast<double>(r.requestLatency.quantile(0.99)));
    EXPECT_GT(registry.seriesValue("serving.latency.p99"), 0.0);
    EXPECT_GE(registry.seriesValue("serving.inflight"), 0.0);
}

TEST(Serving, MetricsAttachmentDoesNotPerturbResults)
{
    MetricRegistry registry;
    const SimResults with = ExperimentRunner::run(
        servingOffloadConfig(), nullptr, &registry);
    const SimResults without =
        ExperimentRunner::run(servingOffloadConfig());
    EXPECT_EQ(with.makespan, without.makespan);
    EXPECT_EQ(with.requestLatency.toString(),
              without.requestLatency.toString());
}

TEST(Serving, SweepPointsAreByteIdenticalAcrossJobCounts)
{
    std::vector<SweepPoint> points;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        SweepPoint point;
        point.config = servingOffloadConfig();
        point.config.seed = seed;
        point.normalize = false;
        point.label = "serving/seed=" + std::to_string(seed);
        points.push_back(point);
    }
    const auto sequential = ParallelSweepRunner({1}).run(points);
    const auto parallel = ParallelSweepRunner({3}).run(points);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_TRUE(sequential[i].ok) << sequential[i].error;
        EXPECT_EQ(sweepPointResultsJson(sequential[i]),
                  sweepPointResultsJson(parallel[i]))
            << points[i].label;
    }
}

TEST(Serving, SweepJsonCarriesLatencyPercentiles)
{
    SweepPoint point;
    point.config = servingOffloadConfig();
    point.normalize = false;
    point.label = "serving/json";
    const auto result = ParallelSweepRunner::runPoint(point, 0);
    ASSERT_TRUE(result.ok) << result.error;
    const std::string json = sweepPointResultsJson(result);
    EXPECT_NE(json.find("\"serving\""), std::string::npos) << json;
    for (const char *field :
         {"\"latency_p50\"", "\"latency_p95\"", "\"latency_p99\"",
          "\"latency_p999\"", "\"request_throughput_kcy\"",
          "\"requests_completed\":120"})
        EXPECT_NE(json.find(field), std::string::npos) << field;
}

TEST(Serving, AggregateMergesSeedReplicas)
{
    std::vector<SweepPoint> points;
    for (std::uint64_t seed : {5ull, 6ull}) {
        SweepPoint point;
        point.config = servingOffloadConfig();
        point.config.seed = seed;
        point.normalize = false;
        points.push_back(point);
    }
    const auto results = ParallelSweepRunner({1}).run(points);
    ASSERT_EQ(results.size(), 2u);
    const SimResults merged = mergeReplicaResults(
        {results[0].results, results[1].results});
    EXPECT_TRUE(merged.servingEnabled);
    EXPECT_EQ(merged.requestsCompleted, 240u);
    EXPECT_EQ(merged.requestLatency.count(), 240u);
    // The pooled histogram is exactly the two per-point histograms
    // merged by hand.
    LatencyHistogram manual;
    manual.merge(results[0].results.requestLatency);
    manual.merge(results[1].results.requestLatency);
    EXPECT_EQ(merged.requestLatency.toString(), manual.toString());
    EXPECT_EQ(merged.offloadRatio.total(),
              results[0].results.offloadRatio.total() +
                  results[1].results.offloadRatio.total());
    EXPECT_GT(merged.offloadRatio.total(), 0u);
    // Hit rates pool weighted by retired instructions.
    const SimResults &a = results[0].results;
    const SimResults &b = results[1].results;
    const double ra = static_cast<double>(a.retired);
    const double rb = static_cast<double>(b.retired);
    EXPECT_DOUBLE_EQ(merged.userL1dHitRate,
                     (a.userL1dHitRate * ra + b.userL1dHitRate * rb) /
                         (ra + rb));
    EXPECT_DOUBLE_EQ(merged.userL1iHitRate,
                     (a.userL1iHitRate * ra + b.userL1iHitRate * rb) /
                         (ra + rb));
    EXPECT_NE(a.userL1dHitRate, b.userL1dHitRate);
}

TEST(Serving, TenantAffinityDispatchRuns)
{
    SystemConfig config = servingOffloadConfig();
    auto serving = std::make_shared<ServingConfig>(*config.serving);
    serving->dispatch = DispatchPolicy::TenantAffinity;
    serving->tenantSkew = 1.2;
    config.serving = serving;
    config.userCores = 3;
    System system(config);
    const SimResults r = system.run();
    EXPECT_EQ(r.requestsCompleted, 120u);
    // Skewed tenants pinned to one thread queue longer than balanced
    // round-robin would; the run must still drain and record every
    // request.
    EXPECT_EQ(r.requestLatency.count(), 120u);
}

} // namespace
} // namespace oscar
