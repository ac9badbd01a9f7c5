/**
 * @file
 * Reader and validator for `oscar.metrics.v1` documents.
 *
 * The repo deliberately has no general-purpose JSON parser; like the
 * trace differ, this reader is a targeted scanner for the exact
 * documents metrics_capture.cc emits (series names are restricted to
 * [a-z0-9._], so no escape handling is needed). It exists for the
 * metrics CLI (summary/timeseries/diff/validate) and the schema-
 * validation tests and CI step.
 */

#ifndef OSCAR_SIM_METRICS_READER_HH_
#define OSCAR_SIM_METRICS_READER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hh"

namespace oscar
{

/** One parsed sample row. */
struct MetricsRow
{
    std::uint64_t sample = 0;
    std::uint64_t instant = 0;
    std::uint64_t cycle = 0;
    std::vector<double> cum;
    std::vector<double> delta;
};

/** A parsed `oscar.metrics.v1` document. */
struct MetricsFile
{
    /** False when parsing failed; `error` says why. */
    bool ok = false;
    std::string error;

    std::string schema;
    std::uint64_t sampleEvery = 0;
    /** Measurement-start row index, or -1. */
    std::int64_t measureSample = -1;
    std::vector<MetricRegistry::Series> series;
    std::vector<MetricsRow> rows;

    /** Index of a series by name, or -1 when absent. */
    std::ptrdiff_t seriesIndex(const std::string &name) const;
};

/** Parse a document from memory. */
MetricsFile parseMetricsDocument(const std::string &text);

/** Load and parse a document from disk. */
MetricsFile loadMetricsFile(const std::string &path);

/**
 * Check schema invariants: schema id, unique series names,
 * consecutive sample indices, strictly monotone instants, per-row
 * array lengths, delta consistency
 * (delta == cum - previous cum, so cumulative >= delta for counters),
 * and counter monotonicity.
 *
 * @return Human-readable problems; empty when the file is valid.
 */
std::vector<std::string> validateMetricsFile(const MetricsFile &file);

} // namespace oscar

#endif // OSCAR_SIM_METRICS_READER_HH_
