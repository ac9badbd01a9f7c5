/**
 * @file
 * Directory controller for the private-L2 MESI protocol.
 *
 * One entry per line tracks which cores' L2s hold the line and whether
 * one of them holds it exclusively (E or M). The MemorySystem consults
 * and updates the directory on every L2 miss, upgrade, and eviction,
 * keeping it exactly consistent with the tag stores.
 */

#ifndef OSCAR_MEM_DIRECTORY_HH_
#define OSCAR_MEM_DIRECTORY_HH_

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace oscar
{

/** Directory view of one line. */
struct DirEntry
{
    /** Bit i set iff core i's L2 holds the line. */
    std::uint64_t sharerMask = 0;
    /** True when exactly one core holds the line in E or M. */
    bool exclusive = false;

    /** True when no core caches the line. */
    bool uncached() const { return sharerMask == 0; }

    /** Number of caching cores. */
    unsigned sharerCount() const
    {
        return static_cast<unsigned>(std::popcount(sharerMask));
    }

    /** Core id of the exclusive owner; only valid when exclusive. */
    CoreId owner() const
    {
        return static_cast<CoreId>(std::countr_zero(sharerMask));
    }

    /** True iff the given core caches the line. */
    bool
    hasSharer(CoreId core) const
    {
        return (sharerMask >> core) & 1ULL;
    }
};

/**
 * Map from line address to sharer state.
 *
 * The table is indexed directly by line address: sharer masks and
 * exclusive flags live in two parallel flat vectors, grown on demand
 * to the power of two above the highest line inserted so far (9 B
 * per line of address extent). Simulated physical memory is a compact
 * bump-allocated range starting at 1 MiB (AddressSpace), about 8 MB
 * for a paper point, so the arrays stay near 1 MB. A lookup is one
 * indexed load with no hashing or probing, an entry never moves once
 * created, and an untracked line is simply an all-zero entry. Lines
 * at or past kMaxLines are rejected with a fatal error rather than
 * allocated; only an absurdly small line size can push a real address
 * space that far.
 *
 * The earlier open-addressed hash table (ReferenceDirectory in
 * tests/reference_directory.hh) is kept as the oracle for the
 * differential test.
 */
class Directory
{
  public:
    /**
     * Exclusive upper bound on tracked line addresses: 2^24 lines is
     * 1 GiB of simulated memory at 64-B lines, and caps the arrays at
     * 144 MiB.
     */
    static constexpr Addr kMaxLines = Addr{1} << 24;

    /** @param num_cores Number of cores tracked; must be <= 64. */
    explicit Directory(unsigned num_cores);

    /** Look up a line; returns an Uncached entry when absent. */
    DirEntry
    lookup(Addr line_addr) const
    {
        if (line_addr >= sharer.size())
            return DirEntry{};
        return entryAt(line_addr);
    }

    /** Record that a core obtained the line in Shared state. */
    void
    addSharer(Addr line_addr, CoreId core)
    {
        addSharerAt(findOrInsert(line_addr), core);
    }

    /** Record that a core obtained the line exclusively (E or M). */
    void
    setExclusive(Addr line_addr, CoreId core)
    {
        setExclusiveAt(findOrInsert(line_addr), core);
    }

    /** Demote an exclusive owner to one sharer among possibly many. */
    void
    demoteToShared(Addr line_addr)
    {
        oscar_assert(line_addr < sharer.size() && sharer[line_addr] != 0);
        excl[line_addr] = 0;
    }

    /** Record that a core's L2 dropped the line (eviction/invalidation). */
    void
    removeSharer(Addr line_addr, CoreId core)
    {
        oscar_assert(core < cores);
        if (line_addr >= sharer.size())
            return;
        const std::uint64_t before = sharer[line_addr];
        const std::uint64_t after = before & ~(1ULL << core);
        sharer[line_addr] = after;
        count -= before != 0 && after == 0;
        // Exclusive survives only while exactly one sharer is left.
        const bool single = after != 0 && (after & (after - 1)) == 0;
        excl[line_addr] &= static_cast<std::uint8_t>(single);
    }

    /**
     * Handle to a line's entry, for fused lookup-then-update sequences
     * on the miss path. It is the line address itself: entries never
     * move, so it stays valid across every other directory call.
     */
    using Slot = std::size_t;

    /**
     * Make a line's entry addressable, growing the arrays when the
     * line lies past their end; an untracked line reads as an empty
     * entry and starts counting in trackedLines() once a *At() call
     * gives it a sharer.
     */
    Slot
    findOrInsert(Addr line_addr)
    {
        if (line_addr >= sharer.size())
            grow(line_addr);
        return static_cast<Slot>(line_addr);
    }

    /** Entry at a slot returned by findOrInsert(). */
    DirEntry
    entryAt(Slot slot) const
    {
        return DirEntry{sharer[slot], excl[slot] != 0};
    }

    /**
     * addSharer() at an already-located slot; also clears any
     * exclusive flag, folding in the demoteToShared() the probing API
     * needs as a separate call.
     */
    void
    addSharerAt(Slot slot, CoreId core)
    {
        oscar_assert(core < cores);
        count += sharer[slot] == 0;
        sharer[slot] |= 1ULL << core;
        excl[slot] = 0;
    }

    /**
     * setExclusive() at an already-located slot: the core becomes the
     * sole sharer with the exclusive flag set. Any cores dropped from
     * the mask must already have had their caches invalidated.
     */
    void
    setExclusiveAt(Slot slot, CoreId core)
    {
        oscar_assert(core < cores);
        count += sharer[slot] == 0;
        sharer[slot] = 1ULL << core;
        excl[slot] = 1;
    }

    /** Number of lines with at least one sharer. */
    std::size_t trackedLines() const { return count; }

    /** Drop all entries (between experiment phases). */
    void clear();

    /** Number of cores this directory was built for. */
    unsigned numCores() const { return cores; }

  private:
    /** Extend the arrays to cover line_addr; fatal past kMaxLines. */
    void grow(Addr line_addr);

    unsigned cores;
    // Parallel arrays indexed by line address; an all-zero entry is an
    // untracked line.
    std::vector<std::uint64_t> sharer;
    std::vector<std::uint8_t> excl;
    std::size_t count = 0;
};

} // namespace oscar

#endif // OSCAR_MEM_DIRECTORY_HH_
