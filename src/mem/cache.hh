/**
 * @file
 * Set-associative cache with LRU replacement and per-line MESI state.
 *
 * The cache is a *tag store* only: this reproduction models timing and
 * coherence, never data values. Latency accounting lives in
 * MemorySystem; this class answers presence/state questions.
 *
 * Layout is structure-of-arrays: tags, states and LRU stamps live in
 * three parallel flat vectors instead of an array of per-way structs.
 * A 16-way set's tags then occupy two cache lines (128 B contiguous)
 * instead of six (16 x 24 B structs), which matters because the L2 tag
 * scan runs on every L1 miss *and* on every L1-hit write (the write
 * path probes the L2 for MESI permission). An absent way is encoded as
 * tag == kNoTag rather than a state byte, so the hot lookup loop
 * touches only the tag array, and its LRU stamp is 0, so the victim
 * scan touches only the stamp array.
 *
 * Both scans visit every way and select with conditional moves rather
 * than exiting early. Which way holds a line (or is LRU) is effectively
 * random per reference, so an early-exit branch mispredicts on a large
 * share of probes; a fixed-trip scan of 2 or 16 ways costs less than
 * those mispredicts (DESIGN.md §14).
 *
 * Replacement decisions are bit-identical to the previous
 * array-of-structs implementation (ReferenceSetAssocCache, kept as a
 * test oracle in tests/reference_cache.hh), which the differential
 * test in tests/test_soa_differential.cc checks against randomized
 * traffic.
 */

#ifndef OSCAR_MEM_CACHE_HH_
#define OSCAR_MEM_CACHE_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/coherence.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace oscar
{

/** Geometry and timing of one cache level. */
struct CacheGeometry
{
    /** Capacity in bytes. */
    std::uint64_t sizeBytes = 32 * 1024;
    /** Associativity (ways per set). */
    unsigned assoc = 2;
    /** Line size in bytes. */
    unsigned lineBytes = 64;
    /** Access latency in cycles. */
    Cycle hitLatency = 1;

    /** Number of sets implied by the geometry. */
    std::uint64_t sets() const;
};

/** A line evicted to make room for an insertion. */
struct Eviction
{
    Addr lineAddr;
    MesiState state;
};

/**
 * Tag store with per-line MESI state.
 *
 * Addresses passed in are *line* addresses (byte address divided by the
 * line size); MemorySystem performs the conversion once.
 */
class SetAssocCache
{
  public:
    /** Sentinel way index returned by lookupTouch on a miss. */
    static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

    /**
     * @param name Instance name used in error messages.
     * @param geometry Size/assoc/line parameters; validated here.
     */
    SetAssocCache(std::string name, const CacheGeometry &geometry);

    /**
     * Look up a line and touch LRU on hit.
     *
     * Defined inline (as are probe/findIndex/setIndex): MemorySystem
     * calls these a handful of times per memory reference, and the
     * cross-TU call overhead was visible in whole-run profiles.
     *
     * @return The line's MESI state, or Invalid on miss.
     */
    MesiState
    access(Addr line_addr)
    {
        const std::size_t idx = findIndex(line_addr);
        if (idx == kNone) {
            ++missCount;
            return MesiState::Invalid;
        }
        ++hitCount;
        lastUse[idx] = ++useClock;
        return states[idx];
    }

    /** Look up without disturbing LRU state. */
    MesiState
    probe(Addr line_addr) const
    {
        const std::size_t idx = findIndex(line_addr);
        return idx == kNone ? MesiState::Invalid : states[idx];
    }

    /**
     * Counter-free lookup for the batched access path: touches LRU on
     * a hit exactly like access(), but leaves the hit/miss counters to
     * the caller (which accumulates a whole batch locally and flushes
     * once via addLookupStats()).
     *
     * @return Flat way index of the line, or kNone on miss.
     */
    std::size_t
    lookupTouch(Addr line_addr)
    {
        const std::size_t idx = findIndex(line_addr);
        if (idx != kNone)
            lastUse[idx] = ++useClock;
        return idx;
    }

    /** State of the way at a lookupTouch()-returned index. */
    MesiState stateAt(std::size_t idx) const { return states[idx]; }

    /** Overwrite the state of the way at a valid index. */
    void setStateAt(std::size_t idx, MesiState state)
    {
        oscar_assert(state != MesiState::Invalid);
        states[idx] = state;
    }

    /**
     * Set a line's state if it is resident; no-op otherwise. Touches
     * neither LRU nor the hit/miss counters — this is the coherence
     * sync used to keep L1 mirror states in step with the L2 (see
     * MemorySystem::fillL1).
     */
    void
    setStateIfPresent(Addr line_addr, MesiState state)
    {
        const std::size_t idx = findIndex(line_addr);
        if (idx != kNone)
            states[idx] = state;
    }

    /**
     * Fold a batch's locally accumulated lookup outcomes into the
     * lifetime hit/miss counters (see lookupTouch).
     */
    void
    addLookupStats(std::uint64_t hits_in, std::uint64_t misses_in)
    {
        hitCount += hits_in;
        missCount += misses_in;
    }

    /**
     * Insert a line with the given state, evicting the LRU way if the
     * set is full.
     *
     * @return The evicted line, if any.
     */
    std::optional<Eviction>
    insert(Addr line_addr, MesiState state)
    {
        oscar_assert(state != MesiState::Invalid);
        // Re-inserting a resident line just refreshes its state.
        if (const std::size_t idx = findIndex(line_addr);
            idx != kNone) {
            states[idx] = state;
            lastUse[idx] = ++useClock;
            return std::nullopt;
        }
        return insertMiss(line_addr, state);
    }

    /**
     * Insert a line the caller knows is absent (it just missed on it),
     * skipping insert()'s residency re-scan. Inserting a resident line
     * through this path is a simulator bug (it would duplicate the
     * tag); asserts stay out of the way here because oscar_assert is
     * never compiled out and a residency check is exactly the scan
     * this entry point exists to avoid. Victim choice is identical to
     * insert().
     *
     * @return The evicted line, if any.
     */
    std::optional<Eviction>
    insertMiss(Addr line_addr, MesiState state)
    {
        oscar_assert(state != MesiState::Invalid);

        // Victim choice mirrors the reference implementation exactly:
        // the lowest-numbered empty way wins, else the strictly
        // smallest LRU stamp (ties break toward the lower way). Empty
        // ways carry stamp 0 and resident ones a stamp >= 1, so one
        // strict-minimum scan over the stamps implements both rules.
        const std::size_t base = setIndex(line_addr) * geom.assoc;
        std::size_t victim = base;
        std::uint64_t oldest = lastUse[base];
        for (unsigned w = 1; w < geom.assoc; ++w) {
            const std::size_t i = base + w;
            const bool older = lastUse[i] < oldest;
            victim = older ? i : victim;
            oldest = older ? lastUse[i] : oldest;
        }

        std::optional<Eviction> evicted;
        if (tags[victim] != kNoTag) {
            evicted = Eviction{tags[victim], states[victim]};
            ++evictionCount;
        }
        tags[victim] = line_addr;
        states[victim] = state;
        lastUse[victim] = ++useClock;
        return evicted;
    }

    /**
     * Change the state of a resident line.
     *
     * It is a simulator bug to call this for a non-resident line.
     */
    void setState(Addr line_addr, MesiState state);

    /**
     * Remove a line.
     *
     * @return The state it held, or Invalid if it was not resident.
     */
    MesiState invalidate(Addr line_addr);

    /** Drop every line (used between experiment phases). */
    void invalidateAll();

    /** Number of currently valid lines. */
    std::uint64_t residentLines() const;

    /** Geometry this cache was built with. */
    const CacheGeometry &geometry() const { return geom; }

    /** Instance name. */
    const std::string &name() const { return label; }

    /** Lifetime hit count. */
    std::uint64_t hits() const { return hitCount; }

    /** Lifetime miss count. */
    std::uint64_t misses() const { return missCount; }

    /** Lifetime eviction count. */
    std::uint64_t evictions() const { return evictionCount; }

  private:
    /**
     * Tag of an empty way. Line addresses are byte addresses divided
     * by the line size, so all-ones can never collide with a real one.
     */
    static constexpr Addr kNoTag = ~static_cast<Addr>(0);

    /** Set index for a line address. */
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return line_addr & (numSets - 1);
    }

    /**
     * Flat way-array index of the way holding a line, or kNone. Scans
     * only the contiguous tag array; empty ways hold kNoTag and can
     * never match. A line sits in at most one way, so selecting the
     * match without an early exit returns the same index.
     */
    std::size_t
    findIndex(Addr line_addr) const
    {
        const std::size_t base = setIndex(line_addr) * geom.assoc;
        std::size_t idx = kNone;
        for (unsigned w = 0; w < geom.assoc; ++w)
            idx = tags[base + w] == line_addr ? base + w : idx;
        return idx;
    }

    std::string label;
    CacheGeometry geom;
    std::uint64_t numSets;
    // Parallel arrays, numSets * assoc entries each, set-major. An
    // empty way holds tags == kNoTag, states == Invalid, lastUse == 0.
    std::vector<Addr> tags;
    std::vector<MesiState> states;
    std::vector<std::uint64_t> lastUse;
    std::uint64_t useClock = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t evictionCount = 0;
};

} // namespace oscar

#endif // OSCAR_MEM_CACHE_HH_
