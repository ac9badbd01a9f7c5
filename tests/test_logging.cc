/**
 * @file
 * Unit tests for the logging helpers (capture, formatting, counters).
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

namespace oscar
{
namespace
{

class LoggingTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogCapture(&captured); }
    void TearDown() override { setLogCapture(nullptr); }

    std::string captured;
};

TEST_F(LoggingTest, InformIsCaptured)
{
    oscar_inform("hello %d", 42);
    EXPECT_NE(captured.find("info: hello 42"), std::string::npos);
}

TEST_F(LoggingTest, WarnIsCapturedAndCounted)
{
    const auto before = warnCount();
    oscar_warn("approximated %s", "thing");
    EXPECT_NE(captured.find("warn: approximated thing"),
              std::string::npos);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST_F(LoggingTest, MultipleRecordsAccumulate)
{
    oscar_inform("one");
    oscar_inform("two");
    EXPECT_NE(captured.find("one"), std::string::npos);
    EXPECT_NE(captured.find("two"), std::string::npos);
}

TEST_F(LoggingTest, InformIsCounted)
{
    const auto before = informCount();
    oscar_inform("status");
    oscar_inform("status");
    EXPECT_EQ(informCount(), before + 2);
}

TEST_F(LoggingTest, ResetZeroesBothCounters)
{
    oscar_warn("w");
    oscar_inform("i");
    resetLogCounts();
    EXPECT_EQ(warnCount(), 0u);
    EXPECT_EQ(informCount(), 0u);
}

TEST_F(LoggingTest, AssertPassesOnTrue)
{
    oscar_assert(1 + 1 == 2);
    SUCCEED();
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH({ oscar_panic("boom %d", 7); }, "");
}

TEST(LoggingDeath, AssertFailureAborts)
{
    EXPECT_DEATH({ oscar_assert(false); }, "");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT({ oscar_fatal("bad config"); },
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace oscar
