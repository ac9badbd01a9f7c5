/**
 * @file
 * Implementation of the experiment helpers.
 */

#include "system/experiment.hh"

#include <cstdio>
#include <string>

#include "sim/compute_once.hh"
#include "sim/logging.hh"

namespace oscar
{

SystemConfig
ExperimentRunner::baselineConfig(WorkloadKind workload, std::uint64_t seed)
{
    SystemConfig config;
    config.workload = workload;
    config.userCores = 1;
    config.offloadEnabled = false;
    config.policy = PolicyKind::Baseline;
    config.seed = seed;
    return config;
}

SystemConfig
ExperimentRunner::hardwareConfig(WorkloadKind workload, InstCount static_n,
                                 Cycle migration_one_way,
                                 std::uint64_t seed)
{
    SystemConfig config = baselineConfig(workload, seed);
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = static_n;
    config.migrationOneWayCycles = migration_one_way;
    return config;
}

SystemConfig
ExperimentRunner::hardwareDynamicConfig(WorkloadKind workload,
                                        Cycle migration_one_way,
                                        std::uint64_t seed)
{
    SystemConfig config =
        hardwareConfig(workload, 1000, migration_one_way, seed);
    config.dynamicThreshold = true;
    return config;
}

SystemConfig
ExperimentRunner::dynamicInstrConfig(WorkloadKind workload,
                                     Cycle migration_one_way,
                                     Cycle di_cost, std::uint64_t seed)
{
    SystemConfig config =
        hardwareConfig(workload, 1000, migration_one_way, seed);
    config.policy = PolicyKind::DynamicInstrumentation;
    config.diDecisionCost = di_cost;
    config.dynamicThreshold = true;
    return config;
}

SystemConfig
ExperimentRunner::staticInstrConfig(
    WorkloadKind workload, Cycle migration_one_way,
    std::shared_ptr<const ServiceProfile> profile, std::uint64_t seed)
{
    SystemConfig config = baselineConfig(workload, seed);
    config.offloadEnabled = true;
    config.policy = PolicyKind::StaticInstrumentation;
    config.migrationOneWayCycles = migration_one_way;
    config.siProfile = std::move(profile);
    return config;
}

std::shared_ptr<const ServiceProfile>
ExperimentRunner::profileServices(WorkloadKind workload,
                                  std::uint64_t seed)
{
    SystemConfig config = baselineConfig(workload, seed);
    // A short pass suffices: only per-service means are consumed.
    config.warmupInstructions = 100'000;
    config.measureInstructions = 600'000;
    System system(config);
    (void)system.run();
    return std::make_shared<ServiceProfile>(system.collectedProfile());
}

SimResults
ExperimentRunner::run(const SystemConfig &config, TraceSink *trace,
                      MetricRegistry *metrics, SpanRecorder *spans)
{
    System system(config);
    if (trace != nullptr)
        system.setTraceSink(trace);
    if (metrics != nullptr)
        system.setMetricRegistry(metrics);
    if (spans != nullptr)
        system.setSpanRecorder(spans);
    return system.run();
}

SystemConfig
baselineVariant(const SystemConfig &config)
{
    SystemConfig base;
    base.workload = config.workload;
    base.geometry = config.geometry;
    base.timings = config.timings;
    base.interrupts = config.interrupts;
    base.osCouplingScale = config.osCouplingScale;
    base.serving = config.serving;
    base.seed = config.seed;
    base.warmupInstructions = config.warmupInstructions;
    base.measureInstructions = config.measureInstructions;
    return base;
}

namespace
{

void
appendKey(std::string &key, const char *name, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.17g", name, value);
    key += buf;
}

void
appendKey(std::string &key, const char *name, std::uint64_t value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%llu", name,
                  static_cast<unsigned long long>(value));
    key += buf;
}

void
appendGeometryKey(std::string &key, const char *name,
                  const CacheGeometry &g)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%llu/%u/%u/%llu", name,
                  static_cast<unsigned long long>(g.sizeBytes), g.assoc,
                  g.lineBytes,
                  static_cast<unsigned long long>(g.hitLatency));
    key += buf;
}

} // namespace

void
appendConfigEnvironmentKey(std::string &key, const SystemConfig &c)
{
    appendKey(key, "w", std::uint64_t(static_cast<int>(c.workload)));
    appendKey(key, "seed", c.seed);
    appendKey(key, "warm", c.warmupInstructions);
    appendKey(key, "couple", c.osCouplingScale);
    appendKey(key, "irq", c.interrupts.meanInterarrivalCycles);
    appendGeometryKey(key, "l1i", c.geometry.l1i);
    appendGeometryKey(key, "l1d", c.geometry.l1d);
    appendGeometryKey(key, "l2", c.geometry.l2);
    appendKey(key, "t.l1", c.timings.l1Hit);
    appendKey(key, "t.l2", c.timings.l2Hit);
    appendKey(key, "t.dir", c.timings.directoryLookup);
    appendKey(key, "t.c2c", c.timings.cacheToCache);
    appendKey(key, "t.inv", c.timings.invalidateAck);
    appendKey(key, "t.mem", c.timings.memory);
    appendKey(key, "t.hop", c.timings.interconnectHop);
    if (c.serving != nullptr) {
        const ServingConfig &s = *c.serving;
        appendKey(key, "s.arr",
                  std::uint64_t(static_cast<int>(s.arrival)));
        appendKey(key, "s.disp",
                  std::uint64_t(static_cast<int>(s.dispatch)));
        appendKey(key, "s.iat", s.meanInterarrivalCycles);
        appendKey(key, "s.diA", s.diurnalAmplitude);
        appendKey(key, "s.diP", s.diurnalPeriodCycles);
        appendKey(key, "s.bp", s.burstProbability);
        appendKey(key, "s.bm", s.burstRateMultiplier);
        appendKey(key, "s.br", s.burstMeanRequests);
        appendKey(key, "s.cpc", std::uint64_t(s.clientsPerCore));
        appendKey(key, "s.think", s.meanThinkCycles);
        appendKey(key, "s.ten", std::uint64_t(s.tenants));
        appendKey(key, "s.skew", s.tenantSkew);
        appendKey(key, "s.seg", s.meanSegments);
        appendKey(key, "s.sigma", s.segmentsSigma);
        appendKey(key, "s.warm", s.warmupRequests);
    }
}

std::string
sweepWarmupKey(const SystemConfig &config)
{
    std::string key = "warm";
    appendConfigEnvironmentKey(key, config);
    char buf[160];
    std::snprintf(buf, sizeof(buf), " cores=%u offload=%d",
                  config.userCores, config.offloadEnabled ? 1 : 0);
    key += buf;
    if (config.offloadEnabled) {
        const TopologyConfig &t = config.topology;
        std::snprintf(buf, sizeof(buf),
                      " topo=%u/%u/%d/%d/%llu/%llu/%zu", t.osCores,
                      t.numaNodes, static_cast<int>(t.placement),
                      static_cast<int>(t.dispatch),
                      static_cast<unsigned long long>(
                          t.intraNodeHopCycles),
                      static_cast<unsigned long long>(
                          t.interNodeHopCycles),
                      t.spillDepth);
        key += buf;
    }
    return key;
}

std::string
sweepPlacementKey(const SystemConfig &config)
{
    if (!streamTapeable(config) || config.dynamicThreshold ||
        config.policy == PolicyKind::StaticInstrumentation)
        return {};
    std::string key = sweepWarmupKey(config);
    key += " place";
    appendKey(key, "pol", std::uint64_t(static_cast<int>(config.policy)));
    appendKey(key, "pred",
              std::uint64_t(static_cast<int>(config.predictor)));
    appendKey(key, "fb",
              std::uint64_t(static_cast<int>(config.thresholdFeedback)));
    appendKey(key, "n", config.staticThreshold);
    const ThresholdConfig &tc = config.thresholdConfig;
    for (const InstCount rung : tc.ladder)
        appendKey(key, "rung", rung);
    appendKey(key, "nhi", tc.initialHighPriv);
    appendKey(key, "nlo", tc.initialLowPriv);
    appendKey(key, "pb", tc.privFractionBoundary);
    appendKey(key, "dlt", tc.improvementDelta);
    appendKey(key, "rel", std::uint64_t(tc.relativeImprovement));
    appendKey(key, "se", tc.sampleEpoch);
    appendKey(key, "re", tc.runEpoch);
    appendKey(key, "mre", tc.maxRunEpoch);
    appendKey(key, "es", tc.epochScale);
    appendKey(key, "c.si", config.siDecisionCost);
    appendKey(key, "c.di", config.diDecisionCost);
    appendKey(key, "c.hi", config.hiDecisionCost);
    appendKey(key, "meas", config.measureInstructions);
    return key;
}

std::string
baselineCacheKey(const SystemConfig &baseline)
{
    std::string key = "baseline";
    appendConfigEnvironmentKey(key, baseline);
    // The warm-snapshot key, by contrast, excludes the horizon.
    appendKey(key, "meas", baseline.measureInstructions);
    if (baseline.serving != nullptr)
        appendKey(key, "s.meas", baseline.serving->measureRequests);
    return key;
}

namespace
{

ComputeOnce<SimResults> baselineCache;

} // namespace

SimResults
ExperimentRunner::baselineResults(const SystemConfig &config)
{
    const SystemConfig baseline = baselineVariant(config);
    return baselineCache.get(baselineCacheKey(baseline),
                             [&] { return run(baseline); });
}

void
ExperimentRunner::clearBaselineCache()
{
    baselineCache.clear();
}

std::size_t
ExperimentRunner::cachedBaselines()
{
    return baselineCache.size();
}

TextTable::TextTable(std::vector<std::string> headers)
    : columnHeaders(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != columnHeaders.size())
        oscar_panic("table row has %zu cells, expected %zu",
                    cells.size(), columnHeaders.size());
    rows.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(columnHeaders.size());
    for (std::size_t c = 0; c < columnHeaders.size(); ++c)
        widths[c] = columnHeaders[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto render_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            line += cells[c];
            line.append(widths[c] - cells[c].size() + 2, ' ');
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        line += '\n';
        return line;
    };

    std::string out = render_row(columnHeaders);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c)
        rule.append(widths[c] + (c + 1 < widths.size() ? 2 : 0), '-');
    out += rule + '\n';
    for (const auto &row : rows)
        out += render_row(row);
    return out;
}

std::string
formatDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

} // namespace oscar
