/**
 * @file
 * Robustness of the artifact readers against mutated input. One tiny
 * serving run writes a metrics and a spans document; seeded byte
 * flips, insertions, line swaps and truncations then corrupt copies
 * of them, and the readers must return a verdict — a parse error, a
 * list of validation problems, or a clean file — for every one. The
 * same mutations of a golden trace must each make the trace differ
 * report a divergence, at the first line that changed. A crash, a
 * sanitizer report or a hang fails the test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/metrics_reader.hh"
#include "sim/random.hh"
#include "sim/span.hh"
#include "sim/span_reader.hh"
#include "sim/trace_diff.hh"
#include "system/experiment.hh"
#include "system/metrics_capture.hh"
#include "system/span_capture.hh"

namespace oscar
{
namespace
{

/** Mutated copies per document. */
constexpr int kMutants = 2000;

/** Bytes the structure of JSONL hinges on, favoured by insertions. */
constexpr char kSyntax[] = "{}[]\",:-+.eE0123456789\n\\ tfn";

SystemConfig
tinyServingConfig()
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->meanInterarrivalCycles = 8'000.0;
    serving->tenants = 4;
    serving->meanSegments = 2.0;
    serving->warmupRequests = 10;
    serving->measureRequests = 40;
    SystemConfig config;
    config.workload = WorkloadKind::Apache;
    config.serving = serving;
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    return config;
}

/** `doc` with two of its lines, picked at random, swapped. */
std::string
swapLines(const std::string &doc, Rng &rng)
{
    std::vector<std::string> lines = splitTraceLines(doc);
    std::swap(lines[rng.nextBounded(lines.size())],
              lines[rng.nextBounded(lines.size())]);
    std::string out;
    for (const std::string &line : lines)
        out += line + '\n';
    if (doc.back() != '\n')
        out.pop_back();
    return out;
}

/**
 * One to four seeded flips, insertions, line swaps or truncations of
 * `doc`.
 */
std::string
mutate(std::string doc, Rng &rng)
{
    const std::uint64_t edits = 1 + rng.nextBounded(4);
    for (std::uint64_t e = 0; e < edits && !doc.empty(); ++e) {
        const std::size_t at = rng.nextBounded(doc.size());
        switch (rng.nextBounded(4)) {
          case 0:
            doc[at] = static_cast<char>(
                doc[at] ^ static_cast<char>(1u << rng.nextBounded(8)));
            break;
          case 1:
            doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(at),
                       kSyntax[rng.nextBounded(sizeof(kSyntax) - 1)]);
            break;
          case 2:
            doc = swapLines(doc, rng);
            break;
          default:
            doc.resize(at);
            break;
        }
    }
    return doc;
}

/** Parse and, when that succeeds, validate every mutant of `doc`. */
template <typename File>
void
expectVerdictForEveryMutant(const std::string &doc, std::uint64_t seed,
                            File (*parse)(const std::string &),
                            std::vector<std::string> (*validate)(
                                const File &))
{
    const File original = parse(doc);
    ASSERT_TRUE(original.ok) << original.error;
    ASSERT_TRUE(validate(original).empty());

    Rng rng(seed);
    int rejected = 0;
    for (int i = 0; i < kMutants; ++i) {
        const File file = parse(mutate(doc, rng));
        if (!file.ok) {
            EXPECT_FALSE(file.error.empty());
            ++rejected;
            continue;
        }
        rejected += validate(file).empty() ? 0 : 1;
    }
    // The mutations reach the error paths, not just harmless bytes.
    EXPECT_GT(rejected, kMutants / 4);
}

TEST(ArtifactMutation, ReadersSurviveMutatedDocuments)
{
    const SystemConfig config = tinyServingConfig();
    MetricRegistry registry(/*sample_every=*/50'000);
    SpanRecorder spans(/*exemplars=*/4);
    (void)ExperimentRunner::run(config, nullptr, &registry, &spans);

    expectVerdictForEveryMutant(metricsDocument(registry, config), 1,
                                parseMetricsDocument, validateMetricsFile);
    expectVerdictForEveryMutant(spansDocument(spans.results(), config), 2,
                                parseSpansDocument, validateSpansFile);
}

TEST(ArtifactMutation, TraceDiffFindsEveryMutatedLine)
{
    std::ifstream in(std::string(OSCAR_GOLDEN_TRACE_DIR) +
                         "/apache_hi_static.trace.jsonl",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string golden = buffer.str();
    const std::vector<std::string> lines = splitTraceLines(golden);
    ASSERT_TRUE(diffTraceText(golden, golden).identical);

    Rng rng(3);
    int changed = 0;
    for (int i = 0; i < kMutants; ++i) {
        const std::string mutant = mutate(golden, rng);
        const TraceDiffReport report = diffTraceText(golden, mutant);
        // A trace's final newline is optional; nothing else is.
        if (mutant == golden || mutant + '\n' == golden) {
            EXPECT_TRUE(report.identical) << "mutant " << i;
            continue;
        }
        ++changed;
        ASSERT_FALSE(report.identical) << "mutant " << i;
        // Every line before the reported one is intact, and the
        // reported line is the first that differs.
        const std::vector<std::string> mutated = splitTraceLines(mutant);
        const std::size_t at = report.divergenceLine;
        ASSERT_LE(at, std::min(lines.size(), mutated.size()));
        EXPECT_TRUE(std::equal(lines.begin(), lines.begin() + at,
                               mutated.begin()))
            << "mutant " << i;
        EXPECT_EQ(report.left, at < lines.size() ? lines[at] : "");
        EXPECT_EQ(report.right, at < mutated.size() ? mutated[at] : "");
        EXPECT_FALSE(at < lines.size() && at < mutated.size() &&
                     lines[at] == mutated[at])
            << "mutant " << i;
    }
    EXPECT_GT(changed, kMutants * 9 / 10);
}

} // namespace
} // namespace oscar
