/**
 * @file
 * Unit tests for the MESI directory.
 */

#include <gtest/gtest.h>

#include "mem/directory.hh"

namespace oscar
{
namespace
{

TEST(Directory, UnknownLineIsUncached)
{
    Directory dir(4);
    const DirEntry entry = dir.lookup(100);
    EXPECT_TRUE(entry.uncached());
    EXPECT_EQ(entry.sharerCount(), 0u);
}

TEST(Directory, AddSharerTracksCores)
{
    Directory dir(4);
    dir.addSharer(7, 0);
    dir.addSharer(7, 2);
    const DirEntry entry = dir.lookup(7);
    EXPECT_EQ(entry.sharerCount(), 2u);
    EXPECT_TRUE(entry.hasSharer(0));
    EXPECT_FALSE(entry.hasSharer(1));
    EXPECT_TRUE(entry.hasSharer(2));
    EXPECT_FALSE(entry.exclusive);
}

TEST(Directory, SetExclusiveReplacesSharers)
{
    Directory dir(4);
    dir.addSharer(7, 0);
    dir.addSharer(7, 1);
    dir.setExclusive(7, 3);
    const DirEntry entry = dir.lookup(7);
    EXPECT_TRUE(entry.exclusive);
    EXPECT_EQ(entry.sharerCount(), 1u);
    EXPECT_EQ(entry.owner(), 3u);
}

TEST(Directory, DemoteToSharedKeepsSharers)
{
    Directory dir(4);
    dir.setExclusive(9, 1);
    dir.demoteToShared(9);
    const DirEntry entry = dir.lookup(9);
    EXPECT_FALSE(entry.exclusive);
    EXPECT_TRUE(entry.hasSharer(1));
}

TEST(Directory, RemoveLastSharerErasesEntry)
{
    Directory dir(2);
    dir.addSharer(5, 0);
    EXPECT_EQ(dir.trackedLines(), 1u);
    dir.removeSharer(5, 0);
    EXPECT_EQ(dir.trackedLines(), 0u);
    EXPECT_TRUE(dir.lookup(5).uncached());
}

TEST(Directory, RemoveSharerOfUnknownLineIsNoop)
{
    Directory dir(2);
    dir.removeSharer(42, 1);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(Directory, AddSharerClearsExclusive)
{
    Directory dir(4);
    dir.setExclusive(3, 0);
    dir.addSharer(3, 1);
    const DirEntry entry = dir.lookup(3);
    EXPECT_FALSE(entry.exclusive);
    EXPECT_EQ(entry.sharerCount(), 2u);
}

TEST(Directory, ClearDropsEverything)
{
    Directory dir(4);
    for (Addr line = 0; line < 10; ++line)
        dir.addSharer(line, 0);
    dir.clear();
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(Directory, SixtyFourCoresSupported)
{
    Directory dir(64);
    dir.setExclusive(1, 63);
    EXPECT_EQ(dir.lookup(1).owner(), 63u);
}

TEST(DirectoryDeath, TooManyCoresRejected)
{
    EXPECT_EXIT(Directory dir(65), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Directory dir(0), ::testing::ExitedWithCode(1), "");
}

TEST(Directory, LinesPastTheArraysReadAsUncached)
{
    Directory dir(4);
    dir.addSharer(10, 1);
    EXPECT_TRUE(dir.lookup(11).uncached());
    EXPECT_TRUE(dir.lookup(Directory::kMaxLines + 5).uncached());
    dir.removeSharer(Directory::kMaxLines + 5, 1);
    EXPECT_EQ(dir.trackedLines(), 1u);
    // Growing past the first allocation keeps earlier entries.
    dir.setExclusive(100000, 2);
    EXPECT_EQ(dir.trackedLines(), 2u);
    EXPECT_TRUE(dir.lookup(10).hasSharer(1));
    EXPECT_EQ(dir.lookup(100000).owner(), 2u);
    EXPECT_TRUE(dir.lookup(99999).uncached());
}

TEST(DirectoryDeath, LinePastCeilingIsFatal)
{
    Directory dir(4);
    EXPECT_EXIT(dir.addSharer(Directory::kMaxLines, 0),
                ::testing::ExitedWithCode(1), "ceiling");
    EXPECT_EXIT(dir.findOrInsert(~Addr{0} >> 6),
                ::testing::ExitedWithCode(1), "ceiling");
}

TEST(Directory, ManyLinesTracked)
{
    Directory dir(4);
    for (Addr line = 0; line < 1000; ++line)
        dir.addSharer(line, line % 4);
    EXPECT_EQ(dir.trackedLines(), 1000u);
}

} // namespace
} // namespace oscar
