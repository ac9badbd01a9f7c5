/**
 * @file
 * Command-line tooling around the three run artifacts, one subcommand
 * family per schema. Misuse exits 2; a failed diff or validation, 1.
 *
 *   oscar_tools trace list | capture NAME [--out PATH] | diff LEFT RIGHT
 *       `oscar.trace.v1`: print the golden-trace catalogue; run a
 *       golden scenario and write its trace (re-bless a golden with
 *       `--out tests/golden/NAME.trace.jsonl`); print the first
 *       divergent line of two traces with context.
 *
 *   oscar_tools metrics summary FILE | timeseries FILE SERIES [--delta]
 *       `oscar.metrics.v1`: print the header, the dynamic-N trajectory,
 *       per-core L2 hit rates and counter totals; print one series as
 *       "instant value" lines, cumulative or per interval.
 *
 *   oscar_tools spans summary FILE | top FILE [N] | rollup FILE
 *       `oscar.spans.v1`: print the per-phase aggregate table; the N
 *       slowest exemplars as span trees, each segment of the critical
 *       path with its share of the end-to-end latency; a flame-style
 *       rollup of each phase's share of the measured cycles.
 *
 *   oscar_tools {metrics|spans} diff LEFT RIGHT [--tolerance T]
 *       Structural divergences (catalogue, sampling grid, schema)
 *       always fail. Value divergences — per-series worst relative
 *       delta for metrics; per-phase sum, mean and p99 for spans — are
 *       listed and fail only beyond T, a finite number >= 0 (default
 *       0: exact).
 *
 *   oscar_tools {metrics|spans} validate FILE
 *       Run the schema validator (sim/metrics_reader.hh,
 *       sim/span_reader.hh) and list any problems; CI gates on it.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "sim/jsonl_scan.hh"
#include "sim/metrics_reader.hh"
#include "sim/span_reader.hh"
#include "sim/trace_diff.hh"
#include "system/experiment.hh"
#include "system/sweep.hh"
#include "system/trace_capture.hh"

namespace
{

using namespace oscar;

/** A command's operands: everything after `TOOL COMMAND`. */
using Args = std::vector<std::string>;

/** Handler result that asks for the command's usage line (exit 2). */
constexpr int kUsage = -1;

/** Load an artifact, reporting a failure on stderr. */
template <typename File>
File
loadOrComplain(File (*load)(const std::string &), const std::string &path)
{
    File file = load(path);
    if (!file.ok)
        std::fprintf(stderr, "%s: %s\n", path.c_str(), file.error.c_str());
    return file;
}

/**
 * Relative distance between two values: |l-r| scaled by the larger
 * magnitude. Equal values (including 0 vs 0) are distance 0; a value
 * against exactly zero is distance 1 — any sign of life where the
 * other run was flat is a full-scale divergence.
 */
double
relativeDelta(double l, double r)
{
    if (l == r)
        return 0.0;
    const double scale = std::max(std::fabs(l), std::fabs(r));
    return std::fabs(l - r) / scale;
}

/** Operands of `diff LEFT RIGHT [--tolerance T]`. */
struct DiffArgs
{
    std::string left;
    std::string right;
    double tolerance = 0.0;
};

/** Parse diff operands; false (after any message) on misuse. */
bool
parseDiffArgs(const Args &args, DiffArgs &out)
{
    bool bad_tolerance = false;
    Args positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--tolerance" && i + 1 < args.size()) {
            if (!parseNonNegative(args[++i].c_str(), out.tolerance)) {
                std::fprintf(stderr,
                             "invalid --tolerance '%s': want a finite "
                             "number >= 0\n",
                             args[i].c_str());
                bad_tolerance = true;
            }
        } else {
            positional.push_back(args[i]);
        }
    }
    if (positional.size() != 2 || bad_tolerance)
        return false;
    out.left = positional[0];
    out.right = positional[1];
    return true;
}

/** Tally of value divergences held against a tolerance. */
struct Verdict
{
    double tolerance = 0.0;
    std::size_t diverged = 0;
    std::size_t exceeded = 0;

    /** Count one nonzero delta; true when it exceeds the tolerance. */
    bool
    count(double delta)
    {
        ++diverged;
        const bool over = delta > tolerance;
        exceeded += over ? 1 : 0;
        return over;
    }

    /**
     * Print the closing line and return the exit status: 1 when any
     * delta exceeded. `of`, when nonzero, is the population the
     * exceed count is reported out of.
     */
    int
    close(const char *unit, std::size_t of,
          const std::string &identical) const
    {
        if (exceeded > 0) {
            if (of > 0)
                std::printf("%zu of %zu", exceeded, of);
            else
                std::printf("%zu", exceeded);
            std::printf(" %s exceed tolerance %.6g\n", unit, tolerance);
            return 1;
        }
        if (diverged > 0) {
            std::printf("%zu %s diverge within tolerance %.6g\n", diverged,
                        unit, tolerance);
            return 0;
        }
        std::printf("identical: %s\n", identical.c_str());
        return 0;
    }
};

// ---------------------------------------------------------------------
// trace

int
traceList(const Args &)
{
    std::printf("%-20s %-10s %-8s %s\n", "name", "workload", "policy",
                "size");
    for (const GoldenTraceConfig &golden : goldenTraceConfigs()) {
        std::printf("%-20s %-10s %-8s warmup=%llu measure=%llu\n",
                    golden.name.c_str(),
                    workloadName(golden.config.workload).c_str(),
                    policyShortName(golden.config.policy),
                    static_cast<unsigned long long>(
                        golden.config.warmupInstructions),
                    static_cast<unsigned long long>(
                        golden.config.measureInstructions));
    }
    return 0;
}

int
traceCapture(const Args &args)
{
    if (args.empty())
        return kUsage;
    const std::string &name = args[0];
    std::string out = name + ".trace.jsonl";
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--out" && i + 1 < args.size()) {
            out = args[++i];
        } else {
            std::fprintf(stderr, "unknown capture option '%s'\n",
                         args[i].c_str());
            return 2;
        }
    }
    const GoldenTraceConfig *golden = findGoldenTraceConfig(name);
    if (golden == nullptr) {
        std::fprintf(stderr, "unknown golden scenario '%s' (see 'list')\n",
                     name.c_str());
        return 2;
    }
    if (!writeTraceFile(golden->config, out)) {
        std::fprintf(stderr, "cannot write '%s'\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
}

int
traceDiff(const Args &args)
{
    if (args.size() != 2)
        return kUsage;
    std::string text[2];
    bool readable = true;
    for (std::size_t i = 0; i < 2; ++i) {
        if (!jsonl::readFile(args[i], text[i])) {
            std::fprintf(stderr, "%s: cannot open '%s'\n", args[i].c_str(),
                         args[i].c_str());
            readable = false;
        }
    }
    if (!readable)
        return 2;
    const TraceDiffReport report = diffTraceText(text[0], text[1]);
    std::printf("%s", report.format().c_str());
    return report.identical ? 0 : 1;
}

// ---------------------------------------------------------------------
// metrics

/** Series index of "mem.core<c>.<suffix>", or -1. */
std::ptrdiff_t
coreSeries(const MetricsFile &file, std::size_t core,
           const std::string &suffix)
{
    return file.seriesIndex("mem.core" + std::to_string(core) + "." +
                            suffix);
}

void
printThresholdTrajectory(const MetricsFile &file)
{
    const std::ptrdiff_t n = file.seriesIndex("controller.n");
    if (n < 0) {
        std::printf("\nno controller.n series (static threshold)\n");
        return;
    }
    std::printf("\n-- dynamic-N trajectory --\n");
    TextTable table({"sample", "instant", "N"});
    for (const MetricsRow &row : file.rows) {
        table.addRow({std::to_string(row.sample),
                      std::to_string(row.instant),
                      formatDouble(row.cum[static_cast<std::size_t>(n)],
                                   0)});
    }
    std::printf("%s", table.render().c_str());
}

void
printL2HitRates(const MetricsFile &file)
{
    // Core count is discovered from the series catalogue.
    std::vector<std::size_t> cores;
    for (std::size_t c = 0; coreSeries(file, c, "l2.user.hits") >= 0; ++c)
        cores.push_back(c);
    if (cores.empty()) {
        std::printf("\nno per-core L2 series\n");
        return;
    }

    std::printf("\n-- cumulative L2 hit rate per core (user+OS) --\n");
    std::vector<std::string> headers = {"sample", "instant"};
    for (std::size_t c : cores)
        headers.push_back("core" + std::to_string(c));
    TextTable table(headers);
    for (const MetricsRow &row : file.rows) {
        std::vector<std::string> cells = {std::to_string(row.sample),
                                          std::to_string(row.instant)};
        for (std::size_t c : cores) {
            const auto value = [&](const char *suffix) {
                const std::ptrdiff_t s = coreSeries(file, c, suffix);
                return s < 0 ? 0.0 : row.cum[static_cast<std::size_t>(s)];
            };
            const double hits = value("l2.user.hits") + value("l2.os.hits");
            const double accesses =
                value("l2.user.accesses") + value("l2.os.accesses");
            cells.push_back(accesses > 0.0 ? formatDouble(hits / accesses, 4)
                                           : "-");
        }
        table.addRow(std::move(cells));
    }
    std::printf("%s", table.render().c_str());
}

void
printCounterTotals(const MetricsFile &file)
{
    if (file.rows.empty())
        return;
    std::printf("\n-- final counter totals --\n");
    const MetricsRow &last = file.rows.back();
    TextTable table({"counter", "total"});
    for (std::size_t s = 0; s < file.series.size(); ++s) {
        if (file.series[s].kind != MetricKind::Counter)
            continue;
        table.addRow({file.series[s].name, formatDouble(last.cum[s], 0)});
    }
    std::printf("%s", table.render().c_str());
}

int
metricsSummary(const Args &args)
{
    if (args.size() != 1)
        return kUsage;
    const MetricsFile file = loadOrComplain(loadMetricsFile, args[0]);
    if (!file.ok)
        return 2;
    std::printf("schema %s\n", file.schema.c_str());
    std::printf("series %zu   samples %zu   sample_every %llu\n",
                file.series.size(), file.rows.size(),
                static_cast<unsigned long long>(file.sampleEvery));
    std::printf("measure_sample %lld\n",
                static_cast<long long>(file.measureSample));
    if (!file.rows.empty()) {
        std::printf("final instant %llu   final cycle %llu\n",
                    static_cast<unsigned long long>(
                        file.rows.back().instant),
                    static_cast<unsigned long long>(
                        file.rows.back().cycle));
    }
    printThresholdTrajectory(file);
    printL2HitRates(file);
    printCounterTotals(file);
    return 0;
}

int
metricsTimeseries(const Args &args)
{
    bool delta = false;
    Args positional;
    for (const std::string &arg : args) {
        if (arg == "--delta")
            delta = true;
        else
            positional.push_back(arg);
    }
    if (positional.size() != 2)
        return kUsage;
    const MetricsFile file = loadOrComplain(loadMetricsFile, positional[0]);
    if (!file.ok)
        return 2;
    const std::ptrdiff_t series = file.seriesIndex(positional[1]);
    if (series < 0) {
        std::fprintf(stderr, "no series '%s' in '%s'\n",
                     positional[1].c_str(), positional[0].c_str());
        return 2;
    }
    const std::size_t s = static_cast<std::size_t>(series);
    for (const MetricsRow &row : file.rows) {
        std::printf("%llu %s\n",
                    static_cast<unsigned long long>(row.instant),
                    formatDouble(delta ? row.delta[s] : row.cum[s], 6)
                        .c_str());
    }
    return 0;
}

int
metricsDiff(const Args &args)
{
    DiffArgs diff;
    if (!parseDiffArgs(args, diff))
        return kUsage;
    const MetricsFile left = loadOrComplain(loadMetricsFile, diff.left);
    const MetricsFile right = loadOrComplain(loadMetricsFile, diff.right);
    if (!left.ok || !right.ok)
        return 2;

    // Structural divergences are never excusable by tolerance: a
    // different catalogue or sampling grid means the runs are not
    // comparable point for point.
    if (left.series.size() != right.series.size()) {
        std::printf("series catalogues differ: %zu vs %zu\n",
                    left.series.size(), right.series.size());
        return 1;
    }
    for (std::size_t s = 0; s < left.series.size(); ++s) {
        if (left.series[s].name != right.series[s].name) {
            std::printf("series %zu differs: '%s' vs '%s'\n", s,
                        left.series[s].name.c_str(),
                        right.series[s].name.c_str());
            return 1;
        }
    }
    if (left.rows.size() != right.rows.size()) {
        std::printf("row counts differ: %zu vs %zu\n", left.rows.size(),
                    right.rows.size());
        return 1;
    }
    for (std::size_t i = 0; i < left.rows.size(); ++i) {
        const MetricsRow &l = left.rows[i];
        const MetricsRow &r = right.rows[i];
        if (l.instant != r.instant || l.cycle != r.cycle) {
            std::printf("row %zu differs: instant %llu/%llu cycle "
                        "%llu/%llu\n",
                        i, static_cast<unsigned long long>(l.instant),
                        static_cast<unsigned long long>(r.instant),
                        static_cast<unsigned long long>(l.cycle),
                        static_cast<unsigned long long>(r.cycle));
            return 1;
        }
    }

    // Value comparison: worst relative delta per series across all
    // rows, reported for every series that diverges at all.
    Verdict verdict{diff.tolerance};
    for (std::size_t s = 0; s < left.series.size(); ++s) {
        double worst = 0.0;
        std::size_t worst_row = 0;
        for (std::size_t i = 0; i < left.rows.size(); ++i) {
            const double d =
                relativeDelta(left.rows[i].cum[s], right.rows[i].cum[s]);
            if (d > worst) {
                worst = d;
                worst_row = i;
            }
        }
        if (worst == 0.0)
            continue;
        const bool over = verdict.count(worst);
        std::printf("series '%s': max rel delta %.6g at row %zu "
                    "(%s vs %s)%s\n",
                    left.series[s].name.c_str(), worst, worst_row,
                    formatDouble(left.rows[worst_row].cum[s], 6).c_str(),
                    formatDouble(right.rows[worst_row].cum[s], 6).c_str(),
                    over ? " EXCEEDS" : "");
    }
    return verdict.close("series", left.series.size(),
                         std::to_string(left.series.size()) + " series, " +
                             std::to_string(left.rows.size()) + " rows");
}

int
metricsValidate(const Args &args)
{
    if (args.size() != 1)
        return kUsage;
    const char *path = args[0].c_str();
    const MetricsFile file = loadMetricsFile(path);
    const std::vector<std::string> problems = validateMetricsFile(file);
    if (problems.empty()) {
        std::printf("%s: valid (%zu series, %zu rows)\n", path,
                    file.series.size(), file.rows.size());
        return 0;
    }
    for (const std::string &problem : problems)
        std::printf("%s: %s\n", path, problem.c_str());
    return 1;
}

// ---------------------------------------------------------------------
// spans

int
spansSummary(const Args &args)
{
    if (args.size() != 1)
        return kUsage;
    const SpansFile file = loadOrComplain(loadSpansFile, args[0]);
    if (!file.ok)
        return 2;
    std::printf("schema %s\n", file.schema.c_str());
    std::printf("spans %llu   exemplars %zu (capacity %llu)\n",
                static_cast<unsigned long long>(file.spans),
                file.exemplars.size(),
                static_cast<unsigned long long>(file.exemplarCapacity));
    std::printf("\n-- per-phase latency attribution (cycles) --\n");
    TextTable table({"phase", "count", "sum", "mean", "p50", "p95", "p99",
                     "p999", "max"});
    for (const SpanPhaseRow &row : file.phases) {
        table.addRow({row.name, std::to_string(row.count),
                      std::to_string(row.sum), formatDouble(row.mean, 1),
                      std::to_string(row.p50), std::to_string(row.p95),
                      std::to_string(row.p99), std::to_string(row.p999),
                      std::to_string(row.max)});
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
                span.thread, static_cast<unsigned long long>(span.latency),
                static_cast<unsigned long long>(span.issued),
                static_cast<unsigned long long>(span.completed),
                static_cast<unsigned long long>(span.seed));
    for (const SpanSegRow &seg : span.segs) {
        const double share =
            span.latency > 0 ? 100.0 * static_cast<double>(seg.cycles) /
                                   static_cast<double>(span.latency)
                             : 0.0;
        std::string where;
        if (seg.service >= 0)
            where += "  sv=" + std::to_string(seg.service);
        if (seg.queue >= 0)
            where += "  q=" + std::to_string(seg.queue);
        std::printf("  +%-10llu %-13s %10llu cy  %5.1f%%%s\n",
                    static_cast<unsigned long long>(seg.start - span.issued),
                    seg.phase.c_str(),
                    static_cast<unsigned long long>(seg.cycles), share,
                    where.c_str());
    }
}

int
spansTop(const Args &args)
{
    if (args.empty() || args.size() > 2)
        return kUsage;
    std::size_t limit = SIZE_MAX;
    if (args.size() == 2) {
        const char *text = args[1].c_str();
        const char *end = text + args[1].size();
        const auto res = std::from_chars(text, end, limit);
        if (res.ec != std::errc() || res.ptr != end || limit == 0) {
            std::fprintf(stderr, "invalid N '%s': want a positive integer\n",
                         text);
            return kUsage;
        }
    }
    const SpansFile file = loadOrComplain(loadSpansFile, args[0]);
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
spansRollup(const Args &args)
{
    if (args.size() != 1)
        return kUsage;
    const SpansFile file = loadOrComplain(loadSpansFile, args[0]);
    if (!file.ok)
        return 2;
    const std::ptrdiff_t total = file.phaseIndex("total");
    if (total < 0) {
        std::fprintf(stderr, "%s: no 'total' aggregate row\n",
                     args[0].c_str());
        return 2;
    }
    const std::uint64_t denom =
        file.phases[static_cast<std::size_t>(total)].sum;

    std::vector<const SpanPhaseRow *> rows;
    for (const SpanPhaseRow &row : file.phases) {
        if (row.name != "total")
            rows.push_back(&row);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const SpanPhaseRow *a, const SpanPhaseRow *b) {
                         return a->sum > b->sum;
                     });

    std::printf("phase rollup over %llu spans (%llu total cycles):\n",
                static_cast<unsigned long long>(file.spans),
                static_cast<unsigned long long>(denom));
    for (const SpanPhaseRow *row : rows) {
        const double share = denom > 0
                                 ? 100.0 * static_cast<double>(row->sum) /
                                       static_cast<double>(denom)
                                 : 0.0;
        const int bar = static_cast<int>(share / 2.0 + 0.5); // 50 = 100%
        std::printf("  %-13s %6.2f%%  %-50.*s %llu cy\n", row->name.c_str(),
                    share, bar,
                    "##################################################",
                    static_cast<unsigned long long>(row->sum));
    }
    return 0;
}

int
spansDiff(const Args &args)
{
    DiffArgs diff;
    if (!parseDiffArgs(args, diff))
        return kUsage;
    const SpansFile left = loadOrComplain(loadSpansFile, diff.left);
    const SpansFile right = loadOrComplain(loadSpansFile, diff.right);
    if (!left.ok || !right.ok)
        return 2;

    if (left.schema != right.schema) {
        std::printf("schemas differ: '%s' vs '%s'\n", left.schema.c_str(),
                    right.schema.c_str());
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

    Verdict verdict{diff.tolerance};
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
            const bool over = verdict.count(check.delta);
            std::printf("phase '%s' %s: rel delta %.6g%s\n", l.name.c_str(),
                        check.what, check.delta, over ? " EXCEEDS" : "");
        }
    }
    return verdict.close("metrics", 0,
                         std::to_string(left.phases.size()) +
                             " phase rows");
}

int
spansValidate(const Args &args)
{
    if (args.size() != 1)
        return kUsage;
    const char *path = args[0].c_str();
    const SpansFile file = loadSpansFile(path);
    const std::vector<std::string> problems = validateSpansFile(file);
    if (problems.empty()) {
        std::printf("%s: valid (%llu spans, %zu exemplars)\n", path,
                    static_cast<unsigned long long>(file.spans),
                    file.exemplars.size());
        return 0;
    }
    for (const std::string &problem : problems)
        std::printf("%s: %s\n", path, problem.c_str());
    return 1;
}

// ---------------------------------------------------------------------

/** One subcommand: `oscar_tools TOOL NAME OPERANDS`. */
struct Command
{
    const char *tool;
    const char *name;
    /** Operand synopsis for the usage line. */
    const char *operands;
    int (*run)(const Args &);
};

constexpr Command kCommands[] = {
    {"trace", "list", "", traceList},
    {"trace", "capture", "NAME [--out PATH]", traceCapture},
    {"trace", "diff", "LEFT RIGHT", traceDiff},
    {"metrics", "summary", "FILE", metricsSummary},
    {"metrics", "timeseries", "FILE SERIES [--delta]", metricsTimeseries},
    {"metrics", "diff", "LEFT RIGHT [--tolerance T]", metricsDiff},
    {"metrics", "validate", "FILE", metricsValidate},
    {"spans", "summary", "FILE", spansSummary},
    {"spans", "top", "FILE [N]", spansTop},
    {"spans", "rollup", "FILE", spansRollup},
    {"spans", "diff", "LEFT RIGHT [--tolerance T]", spansDiff},
    {"spans", "validate", "FILE", spansValidate},
};

/** Print the synopsis of every command of `tool` (all when null). */
int
usage(const char *program, const char *tool)
{
    std::fprintf(stderr, "usage:\n");
    for (const Command &c : kCommands) {
        if (tool == nullptr || std::strcmp(tool, c.tool) == 0)
            std::fprintf(stderr, "  %s %s %s %s\n", program, c.tool, c.name,
                         c.operands);
    }
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *tool = argc > 1 ? argv[1] : "";
    if (std::none_of(std::begin(kCommands), std::end(kCommands),
                     [&](const Command &c) {
                         return std::strcmp(tool, c.tool) == 0;
                     })) {
        return usage(argv[0], nullptr);
    }
    if (argc < 3)
        return usage(argv[0], tool);
    for (const Command &c : kCommands) {
        if (std::strcmp(tool, c.tool) != 0 ||
            std::strcmp(argv[2], c.name) != 0) {
            continue;
        }
        const int status = c.run(Args(argv + 3, argv + argc));
        if (status != kUsage)
            return status;
        std::fprintf(stderr, "usage: %s %s %s %s\n", argv[0], c.tool, c.name,
                     c.operands);
        return 2;
    }
    std::fprintf(stderr, "unknown command '%s'\n", argv[2]);
    return 2;
}
