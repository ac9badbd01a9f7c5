/**
 * @file
 * Serialization of SpanResults as an `oscar.spans.v1` JSONL artifact.
 *
 * Document layout (one JSON object per line):
 *
 *   meta   {"schema":"oscar.spans.v1","spans":N,
 *           "exemplar_capacity":M,"config":{...},
 *           "phases":["dispatch_wait",...]}
 *   phase  {"phase":"total|<name>","count":..,"sum":..,"mean":..,
 *           "min":..,"max":..,"p50":..,"p95":..,"p99":..,"p999":..}
 *   span   {"span":id,"tn":..,"t":..,"segs_n":..,"seed":..,
 *           "issued":..,"started":..,"completed":..,"lat":..,
 *           "segs":[{"ph":"...","start":..,"cy":..[,"sv":..][,"q":..]}]}
 *
 * The "total" phase line comes first and aggregates end-to-end
 * latencies; one line per schema phase follows in canonical order,
 * then the exemplar spans slowest-first. Per-phase sums add up to the
 * total sum exactly and every exemplar's segments tile its lifetime —
 * the invariants the validator in sim/span_reader.hh enforces. The
 * document contains no timestamps or hostnames, so bytes are
 * reproducible per config+seed and invariant under --jobs and replica
 * sharding.
 */

#ifndef OSCAR_SYSTEM_SPAN_CAPTURE_HH_
#define OSCAR_SYSTEM_SPAN_CAPTURE_HH_

#include <string>

#include "sim/span.hh"
#include "system/system_config.hh"

namespace oscar
{

/** Meta line: schema, span count, config, phase catalogue. */
std::string spansMetaJson(const SpanResults &results,
                          const SystemConfig &config);

/** One aggregate phase line (name "total" for end-to-end). */
std::string spanPhaseJson(const char *name,
                          const LatencyHistogram &histogram);

/** One exemplar span line. */
std::string spanExemplarJson(const RequestSpan &span);

/** The complete document: meta + phases + exemplars. */
std::string spansDocument(const SpanResults &results,
                          const SystemConfig &config);

/**
 * Write the document to `path`.
 *
 * @return true when the file was written; false, silently, when it
 *         could not be opened or was written short (the caller
 *         reports it).
 */
bool writeSpansFile(const SpanResults &results, const SystemConfig &config,
                    const std::string &path);

} // namespace oscar

#endif // OSCAR_SYSTEM_SPAN_CAPTURE_HH_
