/**
 * @file
 * Unit and invariant tests for the coherent memory hierarchy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/memory_system.hh"
#include "sim/random.hh"

namespace oscar
{
namespace
{

MemTimings
timings()
{
    return MemTimings{};
}

TEST(MemorySystem, ColdReadGoesToMemory)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    const AccessResult r =
        mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::Memory);
    // l1 + l2 + dir + 2 hops + memory.
    const MemTimings t = timings();
    EXPECT_EQ(r.latency, t.l1Hit + t.l2Hit + t.directoryLookup +
                             2 * t.interconnectHop + t.memory);
}

TEST(MemorySystem, SecondReadHitsL1)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult r =
        mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::L1);
    EXPECT_EQ(r.latency, timings().l1Hit);
}

TEST(MemorySystem, SameLineDifferentOffsetHits)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult r =
        mem.access(0, 0x103F, AccessType::Read, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::L1);
}

TEST(MemorySystem, ColdReadInstallsExclusive)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Exclusive);
    EXPECT_TRUE(mem.directory().lookup(0x1000 >> 6).exclusive);
}

TEST(MemorySystem, ColdWriteInstallsModified)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x2000, AccessType::Write, ExecContext::User);
    EXPECT_EQ(mem.l2(0).probe(0x2000 >> 6), MesiState::Modified);
}

TEST(MemorySystem, SilentExclusiveToModifiedUpgrade)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult w =
        mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    EXPECT_EQ(w.latency, timings().l1Hit);
    EXPECT_FALSE(w.upgrade);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Modified);
}

TEST(MemorySystem, RemoteModifiedSuppliedCacheToCache)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    const AccessResult r =
        mem.access(1, 0x1000, AccessType::Read, ExecContext::Os);
    EXPECT_EQ(r.source, AccessSource::RemoteCache);
    // Both copies now Shared.
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Shared);
    EXPECT_EQ(mem.l2(1).probe(0x1000 >> 6), MesiState::Shared);
    EXPECT_FALSE(mem.directory().lookup(0x1000 >> 6).exclusive);
    EXPECT_EQ(mem.stats(1).c2cTransfers, 1u);
}

TEST(MemorySystem, RemoteWriteInvalidatesOwner)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    const AccessResult w =
        mem.access(1, 0x1000, AccessType::Write, ExecContext::Os);
    EXPECT_EQ(w.source, AccessSource::RemoteCache);
    EXPECT_TRUE(w.invalidatedRemote);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Invalid);
    EXPECT_EQ(mem.l2(1).probe(0x1000 >> 6), MesiState::Modified);
    EXPECT_EQ(mem.stats(0).invalidationsReceived, 1u);
}

TEST(MemorySystem, WriteToSharedUpgrades)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    mem.access(1, 0x1000, AccessType::Read, ExecContext::User);
    // Both sharers now; core 0 writes -> upgrade + invalidate core 1.
    const AccessResult w =
        mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    EXPECT_TRUE(w.upgrade);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Modified);
    EXPECT_EQ(mem.l2(1).probe(0x1000 >> 6), MesiState::Invalid);
    EXPECT_GE(mem.stats(0).upgrades, 1u);
}

TEST(MemorySystem, SharedReadersBothHitLocally)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    mem.access(1, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult a =
        mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult b =
        mem.access(1, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(a.source, AccessSource::L1);
    EXPECT_EQ(b.source, AccessSource::L1);
}

TEST(MemorySystem, L2EvictionInvalidatesL1Inclusion)
{
    // Tiny L2 (4 lines) with a larger L1 would break inclusion; use a
    // tiny direct-mapped-ish config to force L2 evictions quickly.
    HierarchyGeometry g;
    g.l1i = CacheGeometry{256, 2, 64, 1};
    g.l1d = CacheGeometry{256, 2, 64, 1};
    g.l2 = CacheGeometry{512, 2, 64, 12};
    MemorySystem mem(1, g, timings());
    // Fill the L2's set 0 beyond capacity: lines 0, 4, 8 (4 sets... L2
    // has 4 sets; lines 0,4,8 share set 0).
    mem.access(0, 0 * 64, AccessType::Read, ExecContext::User);
    mem.access(0, 4 * 64, AccessType::Read, ExecContext::User);
    mem.access(0, 8 * 64, AccessType::Read, ExecContext::User);
    // Line 0 was evicted from L2; inclusion requires it left L1 too.
    EXPECT_EQ(mem.l2(0).probe(0), MesiState::Invalid);
    EXPECT_EQ(mem.l1d(0).probe(0), MesiState::Invalid);
    // And the directory no longer tracks core 0 for line 0.
    EXPECT_FALSE(mem.directory().lookup(0).hasSharer(0));
}

TEST(MemorySystem, InstrFetchesUseL1I)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x5000, AccessType::InstrFetch, ExecContext::User);
    EXPECT_NE(mem.l1i(0).probe(0x5000 >> 6), MesiState::Invalid);
    EXPECT_EQ(mem.l1d(0).probe(0x5000 >> 6), MesiState::Invalid);
    const AccessResult r =
        mem.access(0, 0x5000, AccessType::InstrFetch, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::L1);
}

TEST(MemorySystem, StatsAttributionByContext)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x6000, AccessType::Read, ExecContext::User);
    mem.access(0, 0x7000, AccessType::Read, ExecContext::Os);
    EXPECT_EQ(mem.stats(0).l2User.total(), 1u);
    EXPECT_EQ(mem.stats(0).l2Os.total(), 1u);
}

TEST(MemorySystem, WindowHitRateResets)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_GT(0.5, mem.windowL2HitRate()); // one miss
    mem.resetWindow();
    EXPECT_DOUBLE_EQ(mem.windowL2HitRate(), 0.0);
}

TEST(MemorySystem, InvalidateAllEmptiesEverything)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    mem.invalidateAll();
    EXPECT_EQ(mem.l2(0).residentLines(), 0u);
    EXPECT_EQ(mem.directory().trackedLines(), 0u);
}

// Invariant sweep: after random traffic from several cores, the
// directory must exactly reflect L2 contents and MESI single-writer /
// multi-reader must hold for every line. The line pool is spread
// sparsely over 16 MiB so the directory grows well past its first
// allocation, and the same traffic runs through both the scalar and
// the batched entry points, which must agree on every latency, state
// and counter.
TEST(MemorySystemProperty, DirectoryMatchesCachesUnderRandomTraffic)
{
    constexpr unsigned kCores = 6;
    constexpr unsigned kLineBytes = 64;
    constexpr std::uint64_t kExtentLines = (16ULL << 20) / kLineBytes;
    constexpr std::size_t kPool = 512;
    HierarchyGeometry g;
    g.l1i = CacheGeometry{512, 2, kLineBytes, 1};
    g.l1d = CacheGeometry{512, 2, kLineBytes, 1};
    g.l2 = CacheGeometry{2048, 2, kLineBytes, 12};
    MemorySystem scalar(kCores, g, timings());
    MemorySystem batched(kCores, g, timings());
    Rng rng(99);

    std::vector<Addr> pool(kPool);
    for (Addr &line : pool)
        line = rng.nextBounded(kExtentLines);

    std::vector<std::uint64_t> refs;
    for (int block = 0; block < 2000; ++block) {
        const CoreId core = static_cast<CoreId>(rng.nextBounded(kCores));
        const ExecContext ctx =
            rng.nextBool(0.3) ? ExecContext::Os : ExecContext::User;
        refs.clear();
        const std::uint64_t len = 1 + rng.nextBounded(40);
        for (std::uint64_t i = 0; i < len; ++i) {
            const Addr addr = pool[rng.nextBounded(kPool)] * kLineBytes +
                              rng.nextBounded(kLineBytes);
            const std::uint64_t draw = rng.nextBounded(100);
            const std::uint64_t kind = draw < 15   ? PackedRef::kInstrFetch
                                       : draw < 65 ? PackedRef::kRead
                                                   : PackedRef::kWrite;
            refs.push_back(PackedRef::make(addr, kind));
        }

        Cycle scalar_stall = 0;
        for (const std::uint64_t ref : refs) {
            const std::uint64_t kind = ref >> PackedRef::kKindShift;
            const AccessType type = kind == PackedRef::kInstrFetch
                                        ? AccessType::InstrFetch
                                    : kind == PackedRef::kRead
                                        ? AccessType::Read
                                        : AccessType::Write;
            const AccessResult r = scalar.access(
                core, ref & PackedRef::kAddrMask, type, ctx);
            scalar_stall += r.latency > 1 ? r.latency - 1 : 0;
        }
        ASSERT_EQ(batched.accessBatch(core, ctx, refs.data(), refs.size()),
                  scalar_stall)
            << "block " << block;
    }

    for (const MemorySystem *mem : {&scalar, &batched}) {
        std::size_t held_lines = 0;
        for (Addr line = 0; line < kExtentLines; ++line) {
            const DirEntry entry = mem->directory().lookup(line);
            unsigned holders = 0;
            unsigned writers = 0;
            MesiState holder_state = MesiState::Invalid;
            for (CoreId c = 0; c < kCores; ++c) {
                const MesiState state = mem->l2(c).probe(line);
                if (state != MesiState::Invalid) {
                    ++holders;
                    holder_state = state;
                    ASSERT_TRUE(entry.hasSharer(c))
                        << "line " << line << " in L2 of core " << c
                        << " but not in directory";
                } else {
                    ASSERT_FALSE(entry.hasSharer(c))
                        << "directory thinks core " << c
                        << " holds line " << line;
                }
                if (canWrite(state))
                    ++writers;
                // L1 inclusion in L2.
                if (mem->l1d(c).probe(line) != MesiState::Invalid ||
                    mem->l1i(c).probe(line) != MesiState::Invalid) {
                    ASSERT_NE(state, MesiState::Invalid)
                        << "L1 holds line " << line
                        << " that L2 dropped on core " << c;
                }
            }
            ASSERT_LE(writers, 1u) << "multiple writers for line " << line;
            if (writers == 1) {
                ASSERT_EQ(holders, 1u)
                    << "writer coexists with sharers on line " << line;
            }
            ASSERT_EQ(entry.sharerCount(), holders);
            const bool sole_owner =
                holders == 1 && (holder_state == MesiState::Exclusive ||
                                 holder_state == MesiState::Modified);
            ASSERT_EQ(entry.exclusive, sole_owner) << "line " << line;
            held_lines += holders > 0;
        }
        ASSERT_GT(held_lines, 0u);
        ASSERT_EQ(mem->directory().trackedLines(), held_lines);
    }

    // Both entry points leave the same statistics and cache contents.
    for (CoreId c = 0; c < kCores; ++c) {
        const CoreMemStats &a = scalar.stats(c);
        const CoreMemStats &b = batched.stats(c);
        EXPECT_EQ(a.l1i.hits(), b.l1i.hits());
        EXPECT_EQ(a.l1i.total(), b.l1i.total());
        EXPECT_EQ(a.l1d.hits(), b.l1d.hits());
        EXPECT_EQ(a.l1d.total(), b.l1d.total());
        EXPECT_EQ(a.l2User.hits(), b.l2User.hits());
        EXPECT_EQ(a.l2Os.total(), b.l2Os.total());
        EXPECT_EQ(a.c2cTransfers, b.c2cTransfers);
        EXPECT_EQ(a.invalidationsSent, b.invalidationsSent);
        EXPECT_EQ(a.upgrades, b.upgrades);
        EXPECT_EQ(a.memoryFetches, b.memoryFetches);
        EXPECT_EQ(scalar.l2(c).evictions(), batched.l2(c).evictions());
        for (const Addr line : pool) {
            EXPECT_EQ(scalar.l2(c).probe(line), batched.l2(c).probe(line));
            EXPECT_EQ(scalar.l1d(c).probe(line),
                      batched.l1d(c).probe(line));
        }
    }
}

// The directory is indexed by line address up to a fixed ceiling. Only
// an absurdly small line size can push a real address past it, and
// that must be a clean fatal error, not a panic or a huge allocation.
TEST(MemorySystemDeath, LinePastDirectoryCeilingIsFatal)
{
    HierarchyGeometry g;
    g.l1i = CacheGeometry{512, 2, 1, 1};
    g.l1d = CacheGeometry{512, 2, 1, 1};
    g.l2 = CacheGeometry{2048, 2, 1, 12};
    MemorySystem mem(2, g, timings());
    // A 1-byte line makes every byte address its own line: 256 KiB in
    // is still under the ceiling, 32 MiB in is past it.
    mem.access(0, 1ULL << 18, AccessType::Read, ExecContext::User);
    EXPECT_EQ(mem.directory().trackedLines(), 1u);
    EXPECT_EXIT(mem.access(0, 32ULL << 20, AccessType::Read,
                           ExecContext::User),
                ::testing::ExitedWithCode(1), "ceiling");
}

} // namespace
} // namespace oscar
