/**
 * @file
 * Implementation of the `oscar.spans.v1` reader.
 *
 * The line grammar is scanned by sim/jsonl_scan.hh, which accepts
 * exactly the byte layout system/span_capture.cc produces.
 */

#include "sim/span_reader.hh"

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

bool
parseMetaLine(std::string_view line, SpansFile &file)
{
    std::size_t pos = 0;
    if (!expect(line, pos, "{\"schema\":") ||
        !parseString(line, pos, file.schema)) {
        return false;
    }
    if (!expect(line, pos, ",\"spans\":") ||
        !parseNumber(line, pos, file.spans)) {
        return false;
    }
    if (!expect(line, pos, ",\"exemplar_capacity\":") ||
        !parseNumber(line, pos, file.exemplarCapacity)) {
        return false;
    }
    if (!expect(line, pos, ",\"config\":") || !skipObject(line, pos))
        return false;
    if (!expect(line, pos, ",\"phases\":["))
        return false;
    if (!expect(line, pos, "]")) {
        for (;;) {
            std::string name;
            if (!parseString(line, pos, name))
                return false;
            file.catalogue.push_back(std::move(name));
            if (expect(line, pos, "]"))
                break;
            if (!expect(line, pos, ","))
                return false;
        }
    }
    return expect(line, pos, "}") && pos == line.size();
}

bool
parsePhaseLine(std::string_view line, SpanPhaseRow &row)
{
    std::size_t pos = 0;
    return expect(line, pos, "{\"phase\":") &&
           parseString(line, pos, row.name) &&
           expect(line, pos, ",\"count\":") &&
           parseNumber(line, pos, row.count) &&
           expect(line, pos, ",\"sum\":") &&
           parseNumber(line, pos, row.sum) &&
           expect(line, pos, ",\"mean\":") &&
           parseNumber(line, pos, row.mean) &&
           expect(line, pos, ",\"min\":") &&
           parseNumber(line, pos, row.min) &&
           expect(line, pos, ",\"max\":") &&
           parseNumber(line, pos, row.max) &&
           expect(line, pos, ",\"p50\":") &&
           parseNumber(line, pos, row.p50) &&
           expect(line, pos, ",\"p95\":") &&
           parseNumber(line, pos, row.p95) &&
           expect(line, pos, ",\"p99\":") &&
           parseNumber(line, pos, row.p99) &&
           expect(line, pos, ",\"p999\":") &&
           parseNumber(line, pos, row.p999) &&
           expect(line, pos, "}") && pos == line.size();
}

bool
parseSegObject(std::string_view line, std::size_t &pos, SpanSegRow &seg)
{
    if (!expect(line, pos, "{\"ph\":") ||
        !parseString(line, pos, seg.phase) ||
        !expect(line, pos, ",\"start\":") ||
        !parseNumber(line, pos, seg.start) ||
        !expect(line, pos, ",\"cy\":") ||
        !parseNumber(line, pos, seg.cycles)) {
        return false;
    }
    if (expect(line, pos, ",\"sv\":")) {
        std::uint64_t value = 0;
        if (!parseNumber(line, pos, value))
            return false;
        seg.service = static_cast<std::int64_t>(value);
    }
    if (expect(line, pos, ",\"q\":")) {
        std::uint64_t value = 0;
        if (!parseNumber(line, pos, value))
            return false;
        seg.queue = static_cast<std::int64_t>(value);
    }
    return expect(line, pos, "}");
}

bool
parseSpanLine(std::string_view line, SpanRow &row)
{
    std::size_t pos = 0;
    if (!expect(line, pos, "{\"span\":") ||
        !parseNumber(line, pos, row.id) ||
        !expect(line, pos, ",\"tn\":") ||
        !parseNumber(line, pos, row.tenant) ||
        !expect(line, pos, ",\"t\":") ||
        !parseNumber(line, pos, row.thread) ||
        !expect(line, pos, ",\"segs_n\":") ||
        !parseNumber(line, pos, row.segments) ||
        !expect(line, pos, ",\"seed\":") ||
        !parseNumber(line, pos, row.seed) ||
        !expect(line, pos, ",\"issued\":") ||
        !parseNumber(line, pos, row.issued) ||
        !expect(line, pos, ",\"started\":") ||
        !parseNumber(line, pos, row.started) ||
        !expect(line, pos, ",\"completed\":") ||
        !parseNumber(line, pos, row.completed) ||
        !expect(line, pos, ",\"lat\":") ||
        !parseNumber(line, pos, row.latency) ||
        !expect(line, pos, ",\"segs\":[")) {
        return false;
    }
    if (!expect(line, pos, "]")) {
        for (;;) {
            SpanSegRow seg;
            if (!parseSegObject(line, pos, seg))
                return false;
            row.segs.push_back(std::move(seg));
            if (expect(line, pos, "]"))
                break;
            if (!expect(line, pos, ","))
                return false;
        }
    }
    return expect(line, pos, "}") && pos == line.size();
}

SpansFile
failParse(std::string error)
{
    SpansFile file;
    file.ok = false;
    file.error = std::move(error);
    return file;
}

} // namespace

std::ptrdiff_t
SpansFile::phaseIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (phases[i].name == name)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

SpansFile
parseSpansDocument(const std::string &text)
{
    SpansFile file;
    const std::string error = jsonl::scanDocument(
        text,
        [&](std::string_view line) { return parseMetaLine(line, file); },
        [&](std::string_view line) -> const char * {
            if (line.substr(0, 9) == "{\"phase\":") {
                SpanPhaseRow row;
                if (!parsePhaseLine(line, row))
                    return "malformed phase row";
                // Phase rows precede exemplars in the writer's layout.
                if (!file.exemplars.empty())
                    return "phase row after exemplar rows";
                file.phases.push_back(std::move(row));
                return nullptr;
            }
            SpanRow row;
            if (!parseSpanLine(line, row))
                return "malformed span row";
            file.exemplars.push_back(std::move(row));
            return nullptr;
        });
    if (!error.empty())
        return failParse(error);
    file.ok = true;
    return file;
}

SpansFile
loadSpansFile(const std::string &path)
{
    std::string text;
    if (!jsonl::readFile(path, text))
        return failParse("cannot open '" + path + "'");
    return parseSpansDocument(text);
}

std::vector<std::string>
validateSpansFile(const SpansFile &file)
{
    std::vector<std::string> problems;
    if (!file.ok) {
        problems.push_back("parse failed: " + file.error);
        return problems;
    }
    if (file.schema != kSpansSchema) {
        problems.push_back("schema is '" + file.schema + "', expected '" +
                           std::string(kSpansSchema) + "'");
    }

    // Meta catalogue must be the canonical phase list in order.
    if (file.catalogue.size() != kNumSpanPhases) {
        problems.push_back("phase catalogue has " +
                           std::to_string(file.catalogue.size()) +
                           " entries, expected " +
                           std::to_string(kNumSpanPhases));
    } else {
        for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
            const char *want = spanPhaseName(static_cast<SpanPhase>(p));
            if (file.catalogue[p] != want) {
                problems.push_back("catalogue[" + std::to_string(p) +
                                   "] is '" + file.catalogue[p] +
                                   "', expected '" + want + "'");
            }
        }
    }

    // Aggregate rows: "total" first, then one row per catalogue phase.
    if (file.phases.size() != kNumSpanPhases + 1) {
        problems.push_back(std::to_string(file.phases.size()) +
                           " phase rows, expected " +
                           std::to_string(kNumSpanPhases + 1));
        return problems; // Layout is broken; row checks would mislead.
    }
    if (file.phases.front().name != "total")
        problems.push_back("first phase row is not 'total'");
    std::uint64_t phase_sum = 0;
    for (std::size_t i = 0; i < file.phases.size(); ++i) {
        const SpanPhaseRow &row = file.phases[i];
        const std::string where = "phase '" + row.name + "': ";
        if (i > 0) {
            const char *want =
                spanPhaseName(static_cast<SpanPhase>(i - 1));
            if (row.name != want) {
                problems.push_back("phase row " + std::to_string(i) +
                                   " is '" + row.name +
                                   "', expected '" + want + "'");
            }
            phase_sum += row.sum;
        }
        if (row.count != file.spans) {
            problems.push_back(where + "count " +
                               std::to_string(row.count) +
                               " != spans " +
                               std::to_string(file.spans));
        }
        if (row.min > row.max)
            problems.push_back(where + "min > max");
        if (row.p50 > row.p95 || row.p95 > row.p99 ||
            row.p99 > row.p999 || row.p999 > row.max) {
            problems.push_back(where + "quantiles not monotone");
        }
        // The writer computes mean as sum/count in double; jsonNumber
        // round-trips, so the check is exact.
        const double want_mean =
            row.count ? static_cast<double>(row.sum) /
                            static_cast<double>(row.count)
                      : 0.0;
        if (row.mean != want_mean)
            problems.push_back(where + "mean != sum / count");
    }
    // Every cycle of every request belongs to exactly one phase, so
    // the per-phase sums reconstruct the end-to-end sum exactly
    // (modulo 2^64, matching the histograms' wrap-around arithmetic).
    if (phase_sum != file.phases.front().sum) {
        problems.push_back("per-phase sums " + std::to_string(phase_sum) +
                           " != total sum " +
                           std::to_string(file.phases.front().sum));
    }

    if (file.exemplars.size() > file.exemplarCapacity) {
        problems.push_back(std::to_string(file.exemplars.size()) +
                           " exemplars exceed capacity " +
                           std::to_string(file.exemplarCapacity));
    }
    if (file.spans >= file.exemplarCapacity &&
        file.exemplars.size() != file.exemplarCapacity) {
        problems.push_back("reservoir not full: " +
                           std::to_string(file.exemplars.size()) +
                           " exemplars from " +
                           std::to_string(file.spans) + " spans");
    }
    for (std::size_t i = 0; i < file.exemplars.size(); ++i) {
        const SpanRow &span = file.exemplars[i];
        const std::string where =
            "exemplar " + std::to_string(i) + " (span " +
            std::to_string(span.id) + "): ";
        if (i > 0) {
            const SpanRow &prev = file.exemplars[i - 1];
            const bool ordered =
                prev.latency != span.latency
                    ? prev.latency > span.latency
                    : (prev.seed != span.seed ? prev.seed < span.seed
                                              : prev.id < span.id);
            if (!ordered)
                problems.push_back(where + "not in slowest-first order");
        }
        if (span.issued > span.started || span.started > span.completed)
            problems.push_back(where + "timestamps not ordered");
        if (span.latency != span.completed - span.issued)
            problems.push_back(where + "lat != completed - issued");
        if (span.segs.empty()) {
            problems.push_back(where + "no segments");
            continue;
        }
        if (span.segs.front().phase != "dispatch_wait" ||
            span.segs.front().start != span.issued) {
            problems.push_back(where + "first segment is not the "
                                       "dispatch wait at the issue "
                                       "instant");
        }
        std::uint64_t cycle_sum = 0;
        for (std::size_t s = 0; s < span.segs.size(); ++s) {
            const SpanSegRow &seg = span.segs[s];
            bool known = false;
            for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
                if (seg.phase ==
                    spanPhaseName(static_cast<SpanPhase>(p))) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                problems.push_back(where + "unknown phase '" +
                                   seg.phase + "'");
            }
            if (s > 0 && seg.start < span.segs[s - 1].start)
                problems.push_back(where + "segments not in start order");
            if (seg.start < span.issued ||
                seg.start + seg.cycles > span.completed) {
                problems.push_back(where + "segment outside the span");
            }
            cycle_sum += seg.cycles;
        }
        // The segments tile the lifetime: phase attribution loses no
        // cycles and counts none twice.
        if (cycle_sum != span.latency) {
            problems.push_back(where + "segment cycles " +
                               std::to_string(cycle_sum) + " != lat " +
                               std::to_string(span.latency));
        }
    }
    return problems;
}

} // namespace oscar
