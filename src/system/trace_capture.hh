/**
 * @file
 * Whole-run trace capture and the golden-trace catalogue.
 *
 * captureTrace() runs one system with a MemoryTraceSink attached and
 * returns the complete `oscar.trace.v1` document (header + one line
 * per event) together with the run's results. Because a System is
 * single-threaded and fully deterministic per seed, the captured text
 * is byte-identical across repeated runs with the same configuration —
 * the property the replay-verification tests assert and the reason
 * golden traces can be diffed byte-for-byte on every build.
 *
 * goldenTraceConfigs() names the small, fast configurations whose
 * traces are checked in under tests/golden/. Changing anything that
 * perturbs simulated behaviour (event ordering, predictor updates,
 * controller decisions, RNG consumption) shows up as a trace diff in
 * ctest; EXPERIMENTS.md describes how to inspect and re-bless them.
 */

#ifndef OSCAR_SYSTEM_TRACE_CAPTURE_HH_
#define OSCAR_SYSTEM_TRACE_CAPTURE_HH_

#include <string>
#include <vector>

#include "system/experiment.hh"
#include "system/system.hh"

namespace oscar
{

/**
 * Trace header line: schema identifier plus the full configuration.
 * Contains no timestamps, hostnames or paths, so it is reproducible.
 */
std::string traceHeaderJson(const SystemConfig &config);

/** A complete in-memory capture of one traced run. */
struct TraceCapture
{
    /** Header JSON line (no newline). */
    std::string header;
    /** One JSON line per event, in emission order (no newlines). */
    std::vector<std::string> lines;
    /** The run's results. */
    SimResults results;

    /** The serialized document: header + events, '\n'-terminated. */
    std::string text() const;
};

/** Run `config` with tracing on and capture the full event stream. */
TraceCapture captureTrace(const SystemConfig &config);

/**
 * Run `config` streaming the trace straight to `path` (JSONL).
 *
 * @return true when the file was written; false, silently, when it
 *         could not be opened or was written short (the caller
 *         reports it).
 */
bool writeTraceFile(const SystemConfig &config, const std::string &path);

/** One named golden-trace scenario. */
struct GoldenTraceConfig
{
    /** Stable name; the checked-in file is <name>.trace.jsonl. */
    std::string name;
    /** The (deliberately small) configuration to trace. */
    SystemConfig config;
};

/** The golden-trace catalogue, in a stable order. */
const std::vector<GoldenTraceConfig> &goldenTraceConfigs();

/** Look up a golden scenario by name; null when unknown. */
const GoldenTraceConfig *findGoldenTraceConfig(const std::string &name);

} // namespace oscar

#endif // OSCAR_SYSTEM_TRACE_CAPTURE_HH_
