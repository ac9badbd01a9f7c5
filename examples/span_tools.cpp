/**
 * @file
 * Command-line tooling around `oscar.spans.v1` request-span exports:
 *
 *   span_tools summary FILE
 *       Print the document header and the per-phase aggregate table
 *       (count, mean, tail quantiles) including the end-to-end total.
 *
 *   span_tools top FILE [N]
 *       Print the N slowest exemplar spans (N >= 1; default: all) as span
 *       trees: one header line per request, then its timestamped
 *       segments indented beneath it with per-segment share of the
 *       end-to-end latency. This is the critical-path view — the
 *       segments ARE the request's critical path, in time order.
 *
 *   span_tools rollup FILE
 *       Flame-style phase rollup from the aggregate sums: one line
 *       per phase with its share of total measured cycles, sorted by
 *       share. Answers "where does the p99 go" at a glance.
 *
 *   span_tools diff LEFT RIGHT [--tolerance T]
 *       Compare the per-phase aggregates of two runs: relative delta
 *       of each phase's sum, mean, and p99. Structural divergences
 *       (schema, catalogue) always fail; value divergences fail only
 *       beyond T (a finite number >= 0; default 0: exact).
 *
 *   span_tools validate FILE
 *       Run the schema validator (see sim/span_reader.hh) and list
 *       any problems. Exits 1 when the file is invalid — the CI span
 *       check is built on this.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/span_reader.hh"
#include "system/experiment.hh"

namespace
{

using namespace oscar;

SpansFile
loadOrComplain(const std::string &path)
{
    SpansFile file = loadSpansFile(path);
    if (!file.ok)
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     file.error.c_str());
    return file;
}

std::string
formatUint(std::uint64_t value)
{
    return std::to_string(value);
}

int
runSummary(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: %s summary FILE\n", argv[0]);
        return 2;
    }
    const SpansFile file = loadOrComplain(argv[2]);
    if (!file.ok)
        return 2;
    std::printf("schema %s\n", file.schema.c_str());
    std::printf("spans %llu   exemplars %zu (capacity %llu)\n",
                static_cast<unsigned long long>(file.spans),
                file.exemplars.size(),
                static_cast<unsigned long long>(file.exemplarCapacity));
    std::printf("\n-- per-phase latency attribution (cycles) --\n");
    TextTable table({"phase", "count", "sum", "mean", "p50", "p95",
                     "p99", "p999", "max"});
    for (const SpanPhaseRow &row : file.phases) {
        table.addRow({row.name, formatUint(row.count),
                      formatUint(row.sum), formatDouble(row.mean, 1),
                      formatUint(row.p50), formatUint(row.p95),
                      formatUint(row.p99), formatUint(row.p999),
                      formatUint(row.max)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

void
printSpanTree(const SpanRow &span)
{
    std::printf("span %llu  tenant %u  thread %u  lat %llu  "
                "[%llu, %llu]  seed %llu\n",
                static_cast<unsigned long long>(span.id), span.tenant,
                span.thread,
                static_cast<unsigned long long>(span.latency),
                static_cast<unsigned long long>(span.issued),
                static_cast<unsigned long long>(span.completed),
                static_cast<unsigned long long>(span.seed));
    for (const SpanSegRow &seg : span.segs) {
        const double share =
            span.latency > 0
                ? 100.0 * static_cast<double>(seg.cycles) /
                      static_cast<double>(span.latency)
                : 0.0;
        std::string where;
        if (seg.service >= 0)
            where += "  sv=" + std::to_string(seg.service);
        if (seg.queue >= 0)
            where += "  q=" + std::to_string(seg.queue);
        std::printf("  +%-10llu %-13s %10llu cy  %5.1f%%%s\n",
                    static_cast<unsigned long long>(seg.start -
                                                    span.issued),
                    seg.phase.c_str(),
                    static_cast<unsigned long long>(seg.cycles), share,
                    where.c_str());
    }
}

int
runTop(int argc, char **argv)
{
    std::size_t limit = SIZE_MAX;
    bool badLimit = false;
    if (argc == 4) {
        const char *end = argv[3] + std::strlen(argv[3]);
        const auto res = std::from_chars(argv[3], end, limit);
        badLimit = res.ec != std::errc() || res.ptr != end || limit == 0;
        if (badLimit) {
            std::fprintf(stderr,
                         "invalid N '%s': want a positive integer\n",
                         argv[3]);
        }
    }
    if ((argc != 3 && argc != 4) || badLimit) {
        std::fprintf(stderr, "usage: %s top FILE [N]\n", argv[0]);
        return 2;
    }
    const SpansFile file = loadOrComplain(argv[2]);
    if (!file.ok)
        return 2;
    const std::size_t n = std::min(limit, file.exemplars.size());
    std::printf("%zu slowest of %llu spans:\n\n", n,
                static_cast<unsigned long long>(file.spans));
    for (std::size_t i = 0; i < n; ++i) {
        printSpanTree(file.exemplars[i]);
        if (i + 1 < n)
            std::printf("\n");
    }
    return 0;
}

int
runRollup(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: %s rollup FILE\n", argv[0]);
        return 2;
    }
    const SpansFile file = loadOrComplain(argv[2]);
    if (!file.ok)
        return 2;
    const std::ptrdiff_t total = file.phaseIndex("total");
    if (total < 0) {
        std::fprintf(stderr, "%s: no 'total' aggregate row\n", argv[2]);
        return 2;
    }
    const double denom = static_cast<double>(
        file.phases[static_cast<std::size_t>(total)].sum);

    std::vector<const SpanPhaseRow *> rows;
    for (const SpanPhaseRow &row : file.phases) {
        if (row.name != "total")
            rows.push_back(&row);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const SpanPhaseRow *a, const SpanPhaseRow *b) {
                         return a->sum > b->sum;
                     });

    std::printf("phase rollup over %llu spans (%s total cycles):\n",
                static_cast<unsigned long long>(file.spans),
                formatUint(static_cast<std::uint64_t>(denom)).c_str());
    for (const SpanPhaseRow *row : rows) {
        const double share =
            denom > 0.0 ? 100.0 * static_cast<double>(row->sum) / denom
                        : 0.0;
        const int bar =
            static_cast<int>(share / 2.0 + 0.5); // 50 cols = 100%
        std::printf("  %-13s %6.2f%%  %-50.*s %llu cy\n",
                    row->name.c_str(), share, bar,
                    "##################################################",
                    static_cast<unsigned long long>(row->sum));
    }
    return 0;
}

/**
 * Strict --tolerance value: the whole string must be a finite number
 * >= 0. strtod would read "abc" as 0 and accept "nan", against which
 * every comparison is false, so every diff would pass.
 */
bool
parseTolerance(const char *text, double &out)
{
    const char *end = text + std::strlen(text);
    const auto res = std::from_chars(text, end, out);
    return res.ec == std::errc() && res.ptr == end && std::isfinite(out) &&
           out >= 0.0;
}

double
relativeDelta(double l, double r)
{
    if (l == r)
        return 0.0;
    const double scale = std::max(std::fabs(l), std::fabs(r));
    return std::fabs(l - r) / scale;
}

int
runDiff(int argc, char **argv)
{
    double tolerance = 0.0;
    bool badTolerance = false;
    std::vector<std::string> positional;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
            if (!parseTolerance(argv[++i], tolerance)) {
                std::fprintf(stderr,
                             "invalid --tolerance '%s': want a finite "
                             "number >= 0\n",
                             argv[i]);
                badTolerance = true;
            }
        } else {
            positional.emplace_back(argv[i]);
        }
    }
    if (positional.size() != 2 || badTolerance) {
        std::fprintf(stderr,
                     "usage: %s diff LEFT RIGHT [--tolerance T]\n",
                     argv[0]);
        return 2;
    }
    const SpansFile left = loadOrComplain(positional[0]);
    const SpansFile right = loadOrComplain(positional[1]);
    if (!left.ok || !right.ok)
        return 2;

    if (left.schema != right.schema) {
        std::printf("schemas differ: '%s' vs '%s'\n",
                    left.schema.c_str(), right.schema.c_str());
        return 1;
    }
    if (left.phases.size() != right.phases.size()) {
        std::printf("phase tables differ: %zu vs %zu rows\n",
                    left.phases.size(), right.phases.size());
        return 1;
    }
    for (std::size_t p = 0; p < left.phases.size(); ++p) {
        if (left.phases[p].name != right.phases[p].name) {
            std::printf("phase %zu differs: '%s' vs '%s'\n", p,
                        left.phases[p].name.c_str(),
                        right.phases[p].name.c_str());
            return 1;
        }
    }

    std::size_t exceeded = 0;
    std::size_t diverged = 0;
    for (std::size_t p = 0; p < left.phases.size(); ++p) {
        const SpanPhaseRow &l = left.phases[p];
        const SpanPhaseRow &r = right.phases[p];
        const struct
        {
            const char *what;
            double delta;
        } checks[] = {
            {"sum", relativeDelta(static_cast<double>(l.sum),
                                  static_cast<double>(r.sum))},
            {"mean", relativeDelta(l.mean, r.mean)},
            {"p99", relativeDelta(static_cast<double>(l.p99),
                                  static_cast<double>(r.p99))},
        };
        for (const auto &check : checks) {
            if (check.delta == 0.0)
                continue;
            ++diverged;
            const bool over = check.delta > tolerance;
            exceeded += over ? 1 : 0;
            std::printf("phase '%s' %s: rel delta %.6g%s\n",
                        l.name.c_str(), check.what, check.delta,
                        over ? " EXCEEDS" : "");
        }
    }
    if (exceeded > 0) {
        std::printf("%zu metrics exceed tolerance %.6g\n", exceeded,
                    tolerance);
        return 1;
    }
    if (diverged > 0) {
        std::printf("%zu metrics diverge within tolerance %.6g\n",
                    diverged, tolerance);
        return 0;
    }
    std::printf("identical: %zu phase rows\n", left.phases.size());
    return 0;
}

int
runValidate(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: %s validate FILE\n", argv[0]);
        return 2;
    }
    const SpansFile file = loadSpansFile(argv[2]);
    const std::vector<std::string> problems = validateSpansFile(file);
    if (problems.empty()) {
        std::printf("%s: valid (%llu spans, %zu exemplars)\n", argv[2],
                    static_cast<unsigned long long>(file.spans),
                    file.exemplars.size());
        return 0;
    }
    for (const std::string &problem : problems)
        std::printf("%s: %s\n", argv[2], problem.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s {summary FILE | top FILE [N] | rollup "
                     "FILE | diff LEFT RIGHT [--tolerance T] | "
                     "validate FILE}\n",
                     argv[0]);
        return 2;
    }
    const std::string command = argv[1];
    if (command == "summary")
        return runSummary(argc, argv);
    if (command == "top")
        return runTop(argc, argv);
    if (command == "rollup")
        return runRollup(argc, argv);
    if (command == "diff")
        return runDiff(argc, argv);
    if (command == "validate")
        return runValidate(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
}
