/**
 * @file
 * Differential tests for the structure-of-arrays cache and directory
 * against the retained array-of-structs / hash-map reference
 * implementations (reference_cache.hh, reference_directory.hh).
 *
 * Both implementations are driven with identical randomized traffic
 * and every observable — returned states, LRU-driven victim choices,
 * eviction records, hit/miss/eviction counters, resident-line and
 * tracked-line counts — must match exactly at every step. The
 * rewrites are pure layout changes; any behavioural divergence is a
 * bug in the rewrite, not an accepted difference.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "reference_cache.hh"
#include "reference_directory.hh"
#include "sim/random.hh"

namespace oscar
{
namespace
{

MesiState
randomValidState(Rng &rng)
{
    switch (rng.nextBounded(3)) {
      case 0:
        return MesiState::Shared;
      case 1:
        return MesiState::Exclusive;
      default:
        return MesiState::Modified;
    }
}

/**
 * Drive both caches with the same operation stream. The address pool
 * is a small multiple of the capacity so that hits, misses, LRU
 * evictions and conflict pressure all occur frequently.
 */
void
driveCachePair(const CacheGeometry &geometry, std::uint64_t seed,
               int operations)
{
    SetAssocCache soa("soa", geometry);
    ReferenceSetAssocCache ref("ref", geometry);

    const std::uint64_t lines =
        geometry.sizeBytes / geometry.lineBytes;
    const std::uint64_t pool = lines * 3;
    Rng rng(seed);

    for (int op = 0; op < operations; ++op) {
        const Addr line = rng.nextBounded(pool);
        switch (rng.nextBounded(6)) {
          case 0: {
            EXPECT_EQ(soa.access(line), ref.access(line));
            break;
          }
          case 1: {
            EXPECT_EQ(soa.probe(line), ref.probe(line));
            break;
          }
          case 2: {
            const MesiState state = randomValidState(rng);
            const std::optional<Eviction> a = soa.insert(line, state);
            const std::optional<Eviction> b = ref.insert(line, state);
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a.has_value()) {
                EXPECT_EQ(a->lineAddr, b->lineAddr);
                EXPECT_EQ(a->state, b->state);
            }
            break;
          }
          case 3: {
            // setState requires residency; redirect to a resident
            // line when this one is absent (both must agree on that).
            const MesiState resident = soa.probe(line);
            ASSERT_EQ(resident, ref.probe(line));
            if (resident != MesiState::Invalid) {
                const MesiState state = randomValidState(rng);
                soa.setState(line, state);
                ref.setState(line, state);
            }
            break;
          }
          case 4: {
            EXPECT_EQ(soa.invalidate(line), ref.invalidate(line));
            break;
          }
          default: {
            // Rare full flush exercises the bulk-reset path.
            if (rng.nextBounded(64) == 0) {
                soa.invalidateAll();
                ref.invalidateAll();
            }
            break;
          }
        }
        EXPECT_EQ(soa.residentLines(), ref.residentLines());
    }

    EXPECT_EQ(soa.hits(), ref.hits());
    EXPECT_EQ(soa.misses(), ref.misses());
    EXPECT_EQ(soa.evictions(), ref.evictions());
}

TEST(SoACacheDifferential, MatchesReferenceOnDefaultGeometry)
{
    driveCachePair(CacheGeometry{}, 1, 20'000);
}

TEST(SoACacheDifferential, MatchesReferenceAcrossGeometries)
{
    // Direct-mapped, high-associativity, and tiny configurations each
    // stress a different victim-selection shape.
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        CacheGeometry direct;
        direct.sizeBytes = 8 * 1024;
        direct.assoc = 1;
        driveCachePair(direct, seed, 10'000);

        CacheGeometry wide;
        wide.sizeBytes = 64 * 1024;
        wide.assoc = 16;
        driveCachePair(wide, seed, 10'000);

        CacheGeometry tiny;
        tiny.sizeBytes = 1024;
        tiny.assoc = 4;
        tiny.lineBytes = 32;
        driveCachePair(tiny, seed, 10'000);
    }
}

/** Drive both directories with the same sharer-traffic stream. */
void
driveDirectoryPair(unsigned cores, std::uint64_t seed, int operations)
{
    Directory soa(cores);
    ReferenceDirectory ref(cores);

    const std::uint64_t pool = 512;
    Rng rng(seed);

    for (int op = 0; op < operations; ++op) {
        const Addr line = rng.nextBounded(pool);
        const CoreId core =
            static_cast<CoreId>(rng.nextBounded(cores));
        switch (rng.nextBounded(6)) {
          case 0: {
            soa.addSharer(line, core);
            ref.addSharer(line, core);
            break;
          }
          case 1: {
            soa.setExclusive(line, core);
            ref.setExclusive(line, core);
            break;
          }
          case 2: {
            // demoteToShared requires a tracked line.
            if (ref.lookup(line).sharerMask != 0) {
                soa.demoteToShared(line);
                ref.demoteToShared(line);
            }
            break;
          }
          case 3:
          case 4: {
            soa.removeSharer(line, core);
            ref.removeSharer(line, core);
            break;
          }
          default: {
            if (rng.nextBounded(128) == 0) {
                soa.clear();
                ref.clear();
            }
            break;
          }
        }
        const DirEntry a = soa.lookup(line);
        const DirEntry b = ref.lookup(line);
        EXPECT_EQ(a.sharerMask, b.sharerMask);
        EXPECT_EQ(a.exclusive, b.exclusive);
        EXPECT_EQ(soa.trackedLines(), ref.trackedLines());
    }

    // Final sweep over the whole pool: every entry must agree, not
    // just the ones the loop happened to re-check last.
    for (Addr line = 0; line < pool; ++line) {
        const DirEntry a = soa.lookup(line);
        const DirEntry b = ref.lookup(line);
        EXPECT_EQ(a.sharerMask, b.sharerMask) << "line " << line;
        EXPECT_EQ(a.exclusive, b.exclusive) << "line " << line;
    }
}

TEST(SoADirectoryDifferential, MatchesReferenceAcrossCoreCounts)
{
    for (unsigned cores : {2u, 8u, 64u})
        driveDirectoryPair(cores, 100 + cores, 30'000);
}

TEST(SoADirectoryDifferential, MatchesReferenceUnderHeavyChurn)
{
    // Insert/remove churn around the hash table's growth and
    // tombstone behaviour: many lines, frequent full erasure.
    driveDirectoryPair(4, 77, 120'000);
}

} // namespace
} // namespace oscar
