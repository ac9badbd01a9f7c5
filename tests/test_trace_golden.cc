/**
 * @file
 * Golden-trace regression tests.
 *
 * Every scenario in goldenTraceConfigs() has a checked-in
 * `oscar.trace.v1` file under tests/golden/. Each test re-runs the
 * scenario and byte-compares the freshly captured trace against the
 * golden; any behavioural change in the decision pipeline (predictor
 * updates, controller rounds, event ordering, RNG consumption) fails
 * the diff and prints the first divergent record with context.
 *
 * To inspect or re-bless after an intended change:
 *   build/examples/example_oscar_tools trace capture <name> \
 *       --out tests/golden/<name>.trace.jsonl
 * (see EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/trace_diff.hh"
#include "system/trace_capture.hh"

#ifndef OSCAR_GOLDEN_TRACE_DIR
#error "OSCAR_GOLDEN_TRACE_DIR must point at the checked-in goldens"
#endif

namespace oscar
{
namespace
{

std::string
goldenPath(const std::string &name)
{
    return std::string(OSCAR_GOLDEN_TRACE_DIR) + "/" + name +
           ".trace.jsonl";
}

class GoldenTraceTest : public testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTraceTest, MatchesCheckedInTrace)
{
    const GoldenTraceConfig *golden =
        findGoldenTraceConfig(GetParam());
    ASSERT_NE(golden, nullptr);

    const std::string path = goldenPath(golden->name);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden trace '" << path
                    << "'; regenerate with example_oscar_tools "
                       "trace capture "
                    << golden->name;
    std::ostringstream buf;
    buf << in.rdbuf();

    const TraceCapture capture = captureTrace(golden->config);
    const TraceDiffReport report =
        diffTraceText(buf.str(), capture.text());
    EXPECT_TRUE(report.identical)
        << "golden trace '" << golden->name
        << "' diverged (left = checked-in, right = this build):\n"
        << report.format()
        << "If the behaviour change is intended, re-bless with:\n"
           "  example_oscar_tools trace capture "
        << golden->name << " --out " << path << "\n";
}

std::vector<std::string>
goldenNames()
{
    std::vector<std::string> names;
    for (const GoldenTraceConfig &golden : goldenTraceConfigs())
        names.push_back(golden.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Catalogue, GoldenTraceTest,
                         testing::ValuesIn(goldenNames()),
                         [](const auto &info) { return info.param; });

TEST(GoldenTraceCatalogue, NamesAreUniqueAndLookupWorks)
{
    const auto &catalogue = goldenTraceConfigs();
    ASSERT_GE(catalogue.size(), 3u);
    for (const GoldenTraceConfig &golden : catalogue) {
        const GoldenTraceConfig *found =
            findGoldenTraceConfig(golden.name);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found, &golden); // first match is the entry itself
    }
    EXPECT_EQ(findGoldenTraceConfig("no-such-scenario"), nullptr);
}

} // namespace
} // namespace oscar
