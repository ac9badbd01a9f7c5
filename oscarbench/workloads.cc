#include "workloads.hh"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "sim/metrics_reader.hh"
#include "sim/span_reader.hh"

namespace oscarbench
{

using namespace oscar;

namespace
{

// --- paper_repro grids (the bench binaries' documented settings) ---

const std::vector<InstCount> kFig4Thresholds = {0, 100, 500, 1000, 5000,
                                                10000};
const std::vector<Cycle> kFig4Latencies = {0, 100, 500, 1000, 5000};

/** Figure 4 panels; the compute panel averages three benchmarks. */
const std::vector<std::vector<WorkloadKind>> &
fig4Panels()
{
    static const std::vector<std::vector<WorkloadKind>> kPanels = {
        {WorkloadKind::Apache},
        {WorkloadKind::SpecJbb},
        {WorkloadKind::Derby},
        {WorkloadKind::Blackscholes, WorkloadKind::Canneal,
         WorkloadKind::Mcf},
    };
    return kPanels;
}

const std::vector<Cycle> kFig5DesignPoints = {5000, 100};
const std::vector<Cycle> kFig5AsideLatencies = {100, 500, 1000, 2500,
                                                5000};

std::vector<WorkloadKind>
fig5Workloads()
{
    std::vector<WorkloadKind> kinds = serverWorkloads();
    kinds.push_back(WorkloadKind::Mcf);
    return kinds;
}

const std::vector<InstCount> kTable3Thresholds = {100, 1000, 5000, 10000};

/** Table III of the paper, in percent (apache, SPECjbb, derby rows). */
const double kTable3Paper[3][4] = {
    {45.75, 37.96, 17.83, 17.68},
    {34.48, 33.15, 21.28, 14.79},
    {8.2, 5.4, 1.2, 0.2},
};

/** The paper's CAM-200 exact / within-±5 % / miss split, in percent. */
const double kPredictorPaper[3] = {73.6, 24.8, 1.6};

std::size_t
fig4PointCount()
{
    std::size_t kinds = 0;
    for (const auto &panel : fig4Panels())
        kinds += panel.size();
    return kinds * kFig4Latencies.size() * kFig4Thresholds.size();
}

std::size_t
fig5PointCount()
{
    return kFig5DesignPoints.size() * fig5Workloads().size() * 3 +
           kFig5AsideLatencies.size();
}

SweepPoint
sized(std::string label, SystemConfig config, InstCount measure,
      InstCount warmup, bool tiny)
{
    SweepPoint point;
    point.label = std::move(label);
    point.config = std::move(config);
    point.config.measureInstructions = tiny ? measure / 20 : measure;
    point.config.warmupInstructions = tiny ? warmup / 20 : warmup;
    return point;
}

std::shared_ptr<const ServiceProfile>
timedProfile(WorkloadKind kind, std::uint64_t seed, Setup &setup,
             Tracer *tracer, std::uint64_t parent)
{
    Span span(tracer, "profile", parent);
    const Clock::time_point start = Clock::now();
    auto profile = ExperimentRunner::profileServices(kind, seed);
    setup.profileMs.push_back(1e3 * secondsSince(start));
    return profile;
}

void
addPaperRepro(Setup &setup, std::uint64_t seed, bool tiny, Tracer *tracer,
              std::uint64_t parent)
{
    std::map<WorkloadKind, std::shared_ptr<const ServiceProfile>> profiles;
    for (WorkloadKind kind : fig5Workloads())
        profiles[kind] = timedProfile(kind, seed, setup, tracer, parent);

    Span span(tracer, "build_points", parent);
    std::vector<SweepPoint> &points = setup.points;
    for (const auto &panel : fig4Panels()) {
        for (Cycle latency : kFig4Latencies) {
            for (InstCount n : kFig4Thresholds) {
                for (WorkloadKind kind : panel) {
                    points.push_back(sized(
                        "fig4/" + workloadName(kind) + "/N=" +
                            std::to_string(n) +
                            "/lat=" + std::to_string(latency),
                        ExperimentRunner::hardwareConfig(kind, n, latency,
                                                         seed),
                        2'400'000, 1'000'000, tiny));
                }
            }
        }
    }
    for (Cycle latency : kFig5DesignPoints) {
        for (WorkloadKind kind : fig5Workloads()) {
            const std::string base = "fig5/" + workloadName(kind) +
                                     "/lat=" + std::to_string(latency);
            points.push_back(
                sized(base + "/si",
                      ExperimentRunner::staticInstrConfig(
                          kind, latency, profiles.at(kind), seed),
                      3'000'000, 1'200'000, tiny));
            points.push_back(
                sized(base + "/di",
                      ExperimentRunner::dynamicInstrConfig(kind, latency,
                                                           100, seed),
                      3'000'000, 1'200'000, tiny));
            points.push_back(
                sized(base + "/hi",
                      ExperimentRunner::hardwareDynamicConfig(
                          kind, latency, seed),
                      3'000'000, 1'200'000, tiny));
        }
    }
    for (Cycle latency : kFig5AsideLatencies) {
        SystemConfig config = ExperimentRunner::hardwareConfig(
            WorkloadKind::Apache, 100, latency, seed);
        config.geometry.l2.sizeBytes = 512 * 1024;
        points.push_back(sized("fig5/apache/512KB-l2/lat=" +
                                   std::to_string(latency),
                               std::move(config), 3'000'000, 1'200'000,
                               tiny));
    }
    for (WorkloadKind kind : serverWorkloads()) {
        for (InstCount n : kTable3Thresholds) {
            SweepPoint point = sized(
                "table3/" + workloadName(kind) + "/N=" + std::to_string(n),
                ExperimentRunner::hardwareConfig(kind, n, 5000, seed),
                3'000'000, 1'000'000, tiny);
            point.normalize = false;
            points.push_back(std::move(point));
        }
    }
}

struct Load
{
    const char *name;
    double meanInterarrival;
};

const std::vector<Load> kLoads = {{"moderate", 26'000.0},
                                  {"heavy", 14'000.0}};

/** Seed replicas of a serving cell; seed 42 gives the benches' 42/1337. */
std::vector<std::uint64_t>
replicaSeeds(std::uint64_t seed)
{
    return {seed, seed + 1295};
}

/** The serving_tail_latency grid: SI/DI/HI x 2 migrations x 2 loads. */
void
addServingGrid(Setup &setup, std::uint64_t seed, bool tiny,
               Tracer *tracer, std::uint64_t parent)
{
    const WorkloadKind workload = WorkloadKind::Apache;
    const auto profile = timedProfile(workload, seed, setup, tracer, parent);
    Span span(tracer, "build_points", parent);
    for (const Load &load : kLoads) {
        for (const Cycle migration : {Cycle{5'000}, Cycle{100}}) {
            for (const PolicyKind policy :
                 {PolicyKind::StaticInstrumentation,
                  PolicyKind::DynamicInstrumentation,
                  PolicyKind::HardwarePredictor}) {
                SweepPoint point;
                if (policy == PolicyKind::StaticInstrumentation) {
                    point.config = ExperimentRunner::staticInstrConfig(
                        workload, migration, profile, seed);
                } else if (policy == PolicyKind::DynamicInstrumentation) {
                    point.config = ExperimentRunner::dynamicInstrConfig(
                        workload, migration, 100, seed);
                } else {
                    point.config = ExperimentRunner::hardwareDynamicConfig(
                        workload, migration, seed);
                }
                point.config.userCores = 2;
                point.config.serving = makeServing(
                    load.meanInterarrival, DispatchPolicy::RoundRobin, tiny);
                point.normalize = false;
                point.replicaSeeds = replicaSeeds(seed);
                point.recordSpans = true;
                point.label = std::string("serving/") +
                              policyShortName(policy) + "/" + load.name +
                              "/lat=" + std::to_string(migration);
                setup.points.push_back(std::move(point));
            }
        }
    }
}

/** The numa_topology grid: K=1 and six K=2 cells x 2 loads. */
void
addNumaGrid(Setup &setup, std::uint64_t seed, bool tiny, bool k1_only,
            Tracer *tracer, std::uint64_t parent)
{
    struct Scenario
    {
        const char *name;
        TopologyConfig topology;
    };
    const std::vector<Scenario> scenarios = {
        {"K1", makeTopology(1, OsPlacement::Packed,
                            OsDispatchPolicy::HomeNode)},
        {"K2/packed/home", makeTopology(2, OsPlacement::Packed,
                                        OsDispatchPolicy::HomeNode)},
        {"K2/packed/ll", makeTopology(2, OsPlacement::Packed,
                                      OsDispatchPolicy::LeastLoaded)},
        {"K2/packed/steal", makeTopology(2, OsPlacement::Packed,
                                         OsDispatchPolicy::WorkStealing)},
        {"K2/spread/home", makeTopology(2, OsPlacement::Spread,
                                        OsDispatchPolicy::HomeNode)},
        {"K2/spread/ll", makeTopology(2, OsPlacement::Spread,
                                      OsDispatchPolicy::LeastLoaded)},
        {"K2/spread/steal", makeTopology(2, OsPlacement::Spread,
                                         OsDispatchPolicy::WorkStealing)},
    };
    Span span(tracer, "build_points", parent);
    for (const Load &load : kLoads) {
        for (const Scenario &scenario : scenarios) {
            if (k1_only && scenario.topology.osCores != 1)
                continue;
            SweepPoint point;
            point.config = ExperimentRunner::hardwareConfig(
                WorkloadKind::Apache, 1'000, 1'000, seed);
            point.config.userCores = 4;
            point.config.topology = scenario.topology;
            point.config.serving = makeServing(
                load.meanInterarrival, DispatchPolicy::NodeAffinity, tiny);
            point.normalize = false;
            point.replicaSeeds = replicaSeeds(seed);
            point.recordSpans = true;
            point.label = std::string("numa/") + scenario.name + "/" +
                          load.name;
            setup.points.push_back(std::move(point));
        }
    }
}

/** Attach trace, metrics (100 k sampling) and spans files to a point. */
void
attachArtifacts(std::vector<SweepPoint> &points, const std::string &dir)
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string base = dir + "/p" + std::to_string(i);
        points[i].tracePath = base + ".trace.jsonl";
        points[i].metricsPath = base + ".metrics.jsonl";
        points[i].metricsSampleEvery = 100'000;
        points[i].spansPath = base + ".spans.jsonl";
    }
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

/** True when the file starts with an oscar.trace.v1 header and has at
 *  least one event line. */
bool
traceFileLooksValid(const std::string &path)
{
    std::ifstream in(path);
    std::string header;
    std::string first_event;
    if (!std::getline(in, header) || !std::getline(in, first_event))
        return false;
    return header.find("\"schema\":\"oscar.trace.v1\"") !=
               std::string::npos &&
           !first_event.empty() && first_event.front() == '{';
}

} // namespace

std::shared_ptr<const ServingConfig>
makeServing(double mean_interarrival, DispatchPolicy dispatch, bool tiny)
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->dispatch = dispatch;
    serving->meanInterarrivalCycles = mean_interarrival;
    serving->diurnalAmplitude = 0.3;
    serving->diurnalPeriodCycles = 2'000'000;
    serving->burstProbability = 0.02;
    serving->burstRateMultiplier = 3.0;
    serving->burstMeanRequests = 16.0;
    serving->tenants = 64;
    serving->tenantSkew = 0.99;
    serving->meanSegments = 3.0;
    serving->segmentsSigma = 0.5;
    serving->warmupRequests = tiny ? 40 : 150;
    serving->measureRequests = tiny ? 150 : 1'000;
    return serving;
}

TopologyConfig
makeTopology(unsigned os_cores, OsPlacement placement,
             OsDispatchPolicy dispatch)
{
    TopologyConfig topo;
    topo.osCores = os_cores;
    topo.numaNodes = 2;
    topo.placement = placement;
    topo.dispatch = dispatch;
    topo.intraNodeHopCycles = 50;
    topo.interNodeHopCycles = 1'000;
    if (dispatch == OsDispatchPolicy::WorkStealing)
        topo.spillDepth = 2;
    return topo;
}

bool
parseWorkload(const std::string &name, WorkloadId &out)
{
    for (WorkloadId id : {WorkloadId::PaperRepro, WorkloadId::ServingNuma,
                          WorkloadId::ObservedServing}) {
        if (name == workloadIdName(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

const char *
workloadIdName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::PaperRepro:
        return "paper_repro";
      case WorkloadId::ServingNuma:
        return "serving_numa";
      case WorkloadId::ObservedServing:
        return "observed_serving";
    }
    return "?";
}

Setup
buildSetup(WorkloadId id, std::uint64_t seed, bool tiny,
           const std::string &artifact_dir, Tracer *tracer,
           std::uint64_t parent)
{
    Setup setup;
    setup.id = id;
    switch (id) {
      case WorkloadId::PaperRepro:
        addPaperRepro(setup, seed, tiny, tracer, parent);
        break;
      case WorkloadId::ServingNuma:
        addServingGrid(setup, seed, tiny, tracer, parent);
        addNumaGrid(setup, seed, tiny, /*k1_only=*/false, tracer, parent);
        break;
      case WorkloadId::ObservedServing:
        addServingGrid(setup, seed, tiny, tracer, parent);
        addNumaGrid(setup, seed, tiny, /*k1_only=*/true, tracer, parent);
        attachArtifacts(setup.points, artifact_dir);
        break;
    }
    return setup;
}

void
CheckTally::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

void
checkResults(const std::vector<SweepPointResult> &results,
             CheckTally &tally)
{
    for (const SweepPointResult &point : results) {
        tally.check(point.ok, point.label + ": " + point.error);
        if (!point.ok || point.config.serving == nullptr)
            continue;
        const std::uint64_t replicas =
            point.replicaSeeds.empty() ? 1 : point.replicaSeeds.size();
        // Counters sum over replicas, and no replica completes more
        // than its configured measured requests, so the sum matches
        // only when every replica completed exactly that many.
        tally.check(point.results.requestsCompleted ==
                        replicas * point.config.serving->measureRequests,
                    point.label + ": requests completed " +
                        std::to_string(point.results.requestsCompleted));
        if (point.results.spans != nullptr) {
            const SpanResults &spans = *point.results.spans;
            tally.check(
                spans.total.sum() == point.results.requestLatency.sum() &&
                    spans.total.count() ==
                        point.results.requestLatency.count(),
                point.label + ": span totals differ from request latency");
        }
    }
}

std::uint64_t
checkArtifacts(const Setup &setup,
               const std::vector<SweepPointResult> &results,
               CheckTally &tally)
{
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < setup.points.size(); ++i) {
        const SweepPoint &point = setup.points[i];
        if (point.tracePath.empty())
            continue;
        const std::size_t replicas = point.replicaSeeds.size();
        std::uint64_t span_latency_sum = 0;
        std::uint64_t span_count = 0;
        for (std::size_t r = 0; r < replicas; ++r) {
            const std::string trace = sweepReplicaPath(point.tracePath, r);
            const std::string metrics =
                sweepReplicaPath(point.metricsPath, r);
            const std::string spans = sweepReplicaPath(point.spansPath, r);
            bytes += fileBytes(trace) + fileBytes(metrics) +
                     fileBytes(spans);

            tally.check(traceFileLooksValid(trace), trace + ": bad trace");

            const MetricsFile mf = loadMetricsFile(metrics);
            tally.check(mf.ok && validateMetricsFile(mf).empty(),
                        metrics + ": invalid metrics " + mf.error);

            const SpansFile sf = loadSpansFile(spans);
            const bool spans_ok = sf.ok && validateSpansFile(sf).empty();
            tally.check(spans_ok, spans + ": invalid spans " + sf.error);
            const std::ptrdiff_t total = sf.phaseIndex("total");
            if (spans_ok && total >= 0) {
                span_latency_sum += sf.phases[total].sum;
                span_count += sf.phases[total].count;
            }
        }
        // The validator proves phase sums tile each file's total; the
        // totals of every replica file must then add up to the point's
        // merged request latency.
        const SimResults &merged = results[i].results;
        tally.check(results[i].ok &&
                        span_latency_sum == merged.requestLatency.sum() &&
                        span_count == merged.requestLatency.count(),
                    point.label + ": span files do not reconstruct latency");
    }
    return bytes;
}

std::uint64_t
resultsDigest(const std::vector<SweepPointResult> &results)
{
    std::uint64_t hash = fnv1a("");
    for (const SweepPointResult &point : results)
        hash = fnv1a(sweepPointResultsJson(point), hash);
    return hash;
}

Accuracy
paperAccuracy(const std::vector<SweepPointResult> &results)
{
    Accuracy acc;
    const std::size_t fig4_points = fig4PointCount();
    const std::size_t fig5_begin = fig4_points;
    const std::size_t table3_begin = fig5_begin + fig5PointCount();
    if (results.size() !=
        table3_begin + serverWorkloads().size() * kTable3Thresholds.size())
        return acc;

    auto violate = [&acc](bool holds, const char *claim) {
        if (holds)
            return;
        ++acc.claimsFailed;
        acc.violated.push_back(claim);
    };

    // Figure 4 as rendered: panel x latency x N, compute panel averaged.
    std::vector<std::vector<std::vector<double>>> fig4;
    std::size_t next = 0;
    for (const auto &panel : fig4Panels()) {
        std::vector<std::vector<double>> rows;
        for (std::size_t l = 0; l < kFig4Latencies.size(); ++l) {
            std::vector<double> row;
            for (std::size_t n = 0; n < kFig4Thresholds.size(); ++n) {
                double sum = 0.0;
                for (std::size_t k = 0; k < panel.size(); ++k)
                    sum += results[next++].normalized;
                row.push_back(sum / static_cast<double>(panel.size()));
            }
            rows.push_back(std::move(row));
        }
        fig4.push_back(std::move(rows));
    }
    bool n0_below_n100 = true;
    bool monotone = true;
    for (const auto &rows : fig4) {
        for (std::size_t l = 0; l < rows.size(); ++l) {
            n0_below_n100 = n0_below_n100 && rows[l][0] < rows[l][1];
            if (l > 0) {
                for (std::size_t n = 0; n < rows[l].size(); ++n)
                    monotone = monotone && rows[l][n] <= rows[l - 1][n];
            }
        }
    }

    bool hi_over_di = true;
    next = fig5_begin;
    for (std::size_t c = 0;
         c < kFig5DesignPoints.size() * fig5Workloads().size(); ++c) {
        const double di = results[next + 1].normalized;
        const double hi = results[next + 2].normalized;
        hi_over_di = hi_over_di && hi > di;
        next += 3;
    }
    bool aside_decays = true;
    for (std::size_t l = 1; l < kFig5AsideLatencies.size(); ++l) {
        aside_decays = aside_decays &&
                       results[next + l].normalized <=
                           results[next + l - 1].normalized;
    }

    double util[3][4] = {};
    double err_sum = 0.0;
    for (std::size_t w = 0; w < 3; ++w) {
        for (std::size_t n = 0; n < 4; ++n) {
            util[w][n] =
                100.0 * results[table3_begin + 4 * w + n]
                            .results.osCoreUtilization;
            err_sum += std::abs(util[w][n] - kTable3Paper[w][n]);
        }
    }
    acc.table3ErrPp = err_sum / 12.0;
    bool table3_order = true;
    for (std::size_t n = 0; n < 4; ++n) {
        table3_order = table3_order && util[0][n] > util[1][n] &&
                       util[1][n] > util[2][n];
        for (std::size_t w = 0; w < 3 && n > 0; ++w)
            table3_order = table3_order && util[w][n] <= util[w][n - 1];
    }

    violate(hi_over_di, "fig5: HI > DI in every cell");
    violate(n0_below_n100, "fig4: N=0 < N=100 at every latency");
    violate(monotone, "fig4: columns monotone in latency");
    violate(table3_order,
            "table3: apache > jbb > derby, non-increasing in N");
    violate(aside_decays, "fig5: 512 KB aside decays with latency");

    // Pooled predictor accuracy over every HI point of the workload.
    PredictorStats pooled;
    for (const SweepPointResult &point : results) {
        if (point.ok &&
            point.config.policy == PolicyKind::HardwarePredictor)
            pooled.merge(point.results.accuracy);
    }
    const double split[3] = {100.0 * pooled.exactRate(),
                             100.0 * pooled.withinToleranceRate(),
                             100.0 * pooled.missRate()};
    for (std::size_t k = 0; k < 3; ++k)
        acc.predictorErrPp += std::abs(split[k] - kPredictorPaper[k]) / 3.0;
    return acc;
}

} // namespace oscarbench
