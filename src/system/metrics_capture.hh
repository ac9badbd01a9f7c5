/**
 * @file
 * Serialization of a sampled MetricRegistry as an `oscar.metrics.v1`
 * JSONL artifact.
 *
 * Document layout (one JSON object per line):
 *
 *   meta   {"schema":"oscar.metrics.v1","sample_every":K,
 *           "measure_sample":M,"config":{...},
 *           "series":[{"name":"...","kind":"counter|gauge"},...]}
 *   row    {"sample":i,"instant":I,"cycle":C,
 *           "cum":[...],"delta":[...]}
 *
 * `cum` holds each series' cumulative value at the sample in series
 * order; `delta` the change since the previous row (first row: equal
 * to `cum`). Counter columns serialize as integers, gauge columns in
 * jsonNumber's round-trippable format. `measure_sample` is the index
 * of the measurement-start mark row, or -1 when the run never left
 * warmup. The document contains no timestamps, hostnames or paths and
 * the simulator is deterministic per config+seed, so the bytes are
 * reproducible — the property the determinism tests diff for.
 */

#ifndef OSCAR_SYSTEM_METRICS_CAPTURE_HH_
#define OSCAR_SYSTEM_METRICS_CAPTURE_HH_

#include <string>

#include "sim/metrics.hh"
#include "system/system_config.hh"

namespace oscar
{

/** Meta line: schema, sampling parameters, config, series catalogue. */
std::string metricsMetaJson(const MetricRegistry &registry,
                            const SystemConfig &config);

/** The complete document: meta line + one row per sample. */
std::string metricsDocument(const MetricRegistry &registry,
                            const SystemConfig &config);

/**
 * Write the document to `path`.
 *
 * @return true when the file was written; false, silently, when it
 *         could not be opened or was written short (the caller
 *         reports it).
 */
bool writeMetricsFile(const MetricRegistry &registry,
                      const SystemConfig &config,
                      const std::string &path);

} // namespace oscar

#endif // OSCAR_SYSTEM_METRICS_CAPTURE_HH_
