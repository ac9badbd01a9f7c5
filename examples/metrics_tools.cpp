/**
 * @file
 * Command-line tooling around `oscar.metrics.v1` time series:
 *
 *   metrics_tools summary FILE
 *       Print the document header, the dynamic-N trajectory, the
 *       per-core cumulative L2 hit-rate series, and the final value of
 *       every counter.
 *
 *   metrics_tools timeseries FILE SERIES [--delta]
 *       Print "instant value" lines for one named series (cumulative
 *       by default, per-interval with --delta).
 *
 *   metrics_tools diff LEFT RIGHT [--tolerance T]
 *       Compare two documents. Structural divergences (catalogue,
 *       row count, sample instants) are always failures; value
 *       divergences are reported as per-series maximum relative
 *       deltas and fail only when one exceeds T (a finite number
 *       >= 0; default 0: exact match). Exits 1 when the documents differ beyond tolerance.
 *
 *   metrics_tools validate FILE
 *       Run the schema validator (see sim/metrics_reader.hh) and list
 *       any problems. Exits 1 when the file is invalid — the CI
 *       metrics check is built on this.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/metrics_reader.hh"
#include "system/experiment.hh"

namespace
{

using namespace oscar;

MetricsFile
loadOrComplain(const std::string &path)
{
    MetricsFile file = loadMetricsFile(path);
    if (!file.ok)
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     file.error.c_str());
    return file;
}

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
    for (std::size_t c = 0; coreSeries(file, c, "l2.user.hits") >= 0;
         ++c) {
        cores.push_back(c);
    }
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
                return s < 0 ? 0.0
                             : row.cum[static_cast<std::size_t>(s)];
            };
            const double hits =
                value("l2.user.hits") + value("l2.os.hits");
            const double accesses =
                value("l2.user.accesses") + value("l2.os.accesses");
            cells.push_back(accesses > 0.0
                                ? formatDouble(hits / accesses, 4)
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
        table.addRow({file.series[s].name,
                      formatDouble(last.cum[s], 0)});
    }
    std::printf("%s", table.render().c_str());
}

int
runSummary(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: %s summary FILE\n", argv[0]);
        return 2;
    }
    const MetricsFile file = loadOrComplain(argv[2]);
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
runTimeseries(int argc, char **argv)
{
    bool delta = false;
    std::vector<std::string> positional;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--delta") == 0)
            delta = true;
        else
            positional.emplace_back(argv[i]);
    }
    if (positional.size() != 2) {
        std::fprintf(stderr,
                     "usage: %s timeseries FILE SERIES [--delta]\n",
                     argv[0]);
        return 2;
    }
    const MetricsFile file = loadOrComplain(positional[0]);
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

/**
 * Relative distance between two samples: |l-r| scaled by the larger
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
    const MetricsFile left = loadOrComplain(positional[0]);
    const MetricsFile right = loadOrComplain(positional[1]);
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
        std::printf("row counts differ: %zu vs %zu\n",
                    left.rows.size(), right.rows.size());
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
    std::size_t exceeded = 0;
    std::size_t diverged = 0;
    for (std::size_t s = 0; s < left.series.size(); ++s) {
        double worst = 0.0;
        std::size_t worstRow = 0;
        for (std::size_t i = 0; i < left.rows.size(); ++i) {
            const double d =
                relativeDelta(left.rows[i].cum[s], right.rows[i].cum[s]);
            if (d > worst) {
                worst = d;
                worstRow = i;
            }
        }
        if (worst == 0.0)
            continue;
        ++diverged;
        const bool over = worst > tolerance;
        exceeded += over ? 1 : 0;
        std::printf("series '%s': max rel delta %.6g at row %zu "
                    "(%s vs %s)%s\n",
                    left.series[s].name.c_str(), worst, worstRow,
                    formatDouble(left.rows[worstRow].cum[s], 6).c_str(),
                    formatDouble(right.rows[worstRow].cum[s], 6).c_str(),
                    over ? " EXCEEDS" : "");
    }
    if (exceeded > 0) {
        std::printf("%zu of %zu series exceed tolerance %.6g\n",
                    exceeded, left.series.size(), tolerance);
        return 1;
    }
    if (diverged > 0) {
        std::printf("%zu series diverge within tolerance %.6g\n",
                    diverged, tolerance);
        return 0;
    }
    std::printf("identical: %zu series, %zu rows\n",
                left.series.size(), left.rows.size());
    return 0;
}

int
runValidate(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: %s validate FILE\n", argv[0]);
        return 2;
    }
    const MetricsFile file = loadMetricsFile(argv[2]);
    const std::vector<std::string> problems = validateMetricsFile(file);
    if (problems.empty()) {
        std::printf("%s: valid (%zu series, %zu rows)\n", argv[2],
                    file.series.size(), file.rows.size());
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
                     "usage: %s {summary FILE | timeseries FILE SERIES "
                     "[--delta] | diff LEFT RIGHT [--tolerance T] | "
                     "validate FILE}\n",
                     argv[0]);
        return 2;
    }
    const std::string command = argv[1];
    if (command == "summary")
        return runSummary(argc, argv);
    if (command == "timeseries")
        return runTimeseries(argc, argv);
    if (command == "diff")
        return runDiff(argc, argv);
    if (command == "validate")
        return runValidate(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
}
