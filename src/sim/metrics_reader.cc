/**
 * @file
 * Implementation of the `oscar.metrics.v1` reader.
 *
 * The line grammar is scanned by sim/jsonl_scan.hh, which accepts
 * exactly the byte layout metrics_capture.cc produces.
 */

#include "sim/metrics_reader.hh"

#include <string_view>

#include "sim/jsonl_scan.hh"

namespace oscar
{

namespace
{

using jsonl::expect;
using jsonl::parseNumber;
using jsonl::parseString;
using jsonl::skipObject;

/** Parse `[n,n,...]` (possibly empty). */
bool
parseNumberArray(std::string_view text, std::size_t &pos,
                 std::vector<double> &out)
{
    out.clear();
    if (!expect(text, pos, "["))
        return false;
    if (expect(text, pos, "]"))
        return true;
    for (;;) {
        double value = 0;
        if (!parseNumber(text, pos, value))
            return false;
        out.push_back(value);
        if (expect(text, pos, "]"))
            return true;
        if (!expect(text, pos, ","))
            return false;
    }
}

bool
parseKind(const std::string &name, MetricKind &out)
{
    if (name == "counter") {
        out = MetricKind::Counter;
    } else if (name == "gauge") {
        out = MetricKind::Gauge;
    } else {
        return false;
    }
    return true;
}

bool
parseMetaLine(std::string_view line, MetricsFile &file)
{
    std::size_t pos = 0;
    if (!expect(line, pos, "{\"schema\":") ||
        !parseString(line, pos, file.schema)) {
        return false;
    }
    if (!expect(line, pos, ",\"sample_every\":") ||
        !parseNumber(line, pos, file.sampleEvery)) {
        return false;
    }
    if (!expect(line, pos, ",\"measure_sample\":") ||
        !parseNumber(line, pos, file.measureSample)) {
        return false;
    }
    if (!expect(line, pos, ",\"config\":") || !skipObject(line, pos))
        return false;
    if (!expect(line, pos, ",\"series\":["))
        return false;
    if (!expect(line, pos, "]")) {
        for (;;) {
            MetricRegistry::Series series;
            std::string kind;
            if (!expect(line, pos, "{\"name\":") ||
                !parseString(line, pos, series.name) ||
                !expect(line, pos, ",\"kind\":") ||
                !parseString(line, pos, kind) ||
                !expect(line, pos, "}") ||
                !parseKind(kind, series.kind)) {
                return false;
            }
            file.series.push_back(series);
            if (expect(line, pos, "]"))
                break;
            if (!expect(line, pos, ","))
                return false;
        }
    }
    return expect(line, pos, "}") && pos == line.size();
}

bool
parseRowLine(std::string_view line, MetricsRow &row)
{
    std::size_t pos = 0;
    return expect(line, pos, "{\"sample\":") &&
           parseNumber(line, pos, row.sample) &&
           expect(line, pos, ",\"instant\":") &&
           parseNumber(line, pos, row.instant) &&
           expect(line, pos, ",\"cycle\":") &&
           parseNumber(line, pos, row.cycle) &&
           expect(line, pos, ",\"cum\":") &&
           parseNumberArray(line, pos, row.cum) &&
           expect(line, pos, ",\"delta\":") &&
           parseNumberArray(line, pos, row.delta) &&
           expect(line, pos, "}") && pos == line.size();
}

MetricsFile
failParse(std::string error)
{
    MetricsFile file;
    file.ok = false;
    file.error = std::move(error);
    return file;
}

} // namespace

std::ptrdiff_t
MetricsFile::seriesIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i].name == name)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

MetricsFile
parseMetricsDocument(const std::string &text)
{
    MetricsFile file;
    const std::string error = jsonl::scanDocument(
        text,
        [&](std::string_view line) { return parseMetaLine(line, file); },
        [&](std::string_view line) -> const char * {
            MetricsRow row;
            if (!parseRowLine(line, row))
                return "malformed sample row";
            file.rows.push_back(std::move(row));
            return nullptr;
        });
    if (!error.empty())
        return failParse(error);
    file.ok = true;
    return file;
}

MetricsFile
loadMetricsFile(const std::string &path)
{
    std::string text;
    if (!jsonl::readFile(path, text))
        return failParse("cannot open '" + path + "'");
    return parseMetricsDocument(text);
}

std::vector<std::string>
validateMetricsFile(const MetricsFile &file)
{
    std::vector<std::string> problems;
    if (!file.ok) {
        problems.push_back("parse failed: " + file.error);
        return problems;
    }
    if (file.schema != kMetricsSchema) {
        problems.push_back("schema is '" + file.schema + "', expected '" +
                           std::string(kMetricsSchema) + "'");
    }
    if (file.measureSample >= 0 &&
        static_cast<std::uint64_t>(file.measureSample) >=
            file.rows.size()) {
        problems.push_back("measure_sample " +
                           std::to_string(file.measureSample) +
                           " out of range");
    }

    const std::size_t width = file.series.size();
    for (std::size_t s = 0; s < width; ++s) {
        for (std::size_t t = 0; t < s; ++t) {
            if (file.series[t].name == file.series[s].name) {
                problems.push_back("series " + std::to_string(s) +
                                   " duplicates name '" +
                                   file.series[s].name + "'");
                break;
            }
        }
    }
    for (std::size_t i = 0; i < file.rows.size(); ++i) {
        const MetricsRow &row = file.rows[i];
        const std::string where = "row " + std::to_string(i) + ": ";
        if (row.sample != i) {
            problems.push_back(where + "sample index " +
                               std::to_string(row.sample) +
                               ", expected " + std::to_string(i));
        }
        if (row.cum.size() != width || row.delta.size() != width) {
            problems.push_back(where + "array width mismatch");
            continue; // Per-series checks would read out of bounds.
        }
        if (i > 0 &&
            row.instant <= file.rows[i - 1].instant) {
            problems.push_back(where + "instant " +
                               std::to_string(row.instant) +
                               " not strictly monotone");
        }
        for (std::size_t s = 0; s < width; ++s) {
            const double before = i > 0 ? file.rows[i - 1].cum[s] : 0.0;
            // jsonNumber output round-trips exactly, so delta must
            // reproduce the writer's subtraction bit-for-bit.
            if (row.delta[s] != row.cum[s] - before) {
                problems.push_back(where + "series '" +
                                   file.series[s].name +
                                   "' delta != cum - previous cum");
            }
            if (file.series[s].kind == MetricKind::Counter &&
                row.cum[s] < before) {
                problems.push_back(where + "counter '" +
                                   file.series[s].name +
                                   "' not monotone");
            }
        }
    }
    return problems;
}

} // namespace oscar
