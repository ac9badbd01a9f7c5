/**
 * @file
 * Open-addressing hash map with 64-bit keys for simulator hot paths.
 *
 * std::unordered_map pays a heap node and a pointer chase per entry;
 * on paths executed millions of times per simulated second (the CAM
 * predictor index) that is the dominant cost. This
 * map stores everything in three flat arrays and probes linearly, so
 * a lookup is one hash, a byte-array scan, and (usually) one key
 * compare — no allocation, no pointer chasing.
 *
 * Design:
 *  - power-of-two capacity, linear probing, max load factor 7/10;
 *  - SplitMix64-finalizer hash, so adversarially regular key patterns
 *    (line addresses, XOR-folded register values) spread uniformly;
 *  - backward-shift deletion: erase() re-packs the probe chain
 *    instead of leaving tombstones, so performance cannot degrade
 *    with churn and load-factor accounting stays exact;
 *  - iteration order is deliberately not exposed (no begin/end):
 *    callers that need ordered traversal keep their own structure,
 *    which is what keeps simulation results independent of hash
 *    layout.
 *
 * The map is observationally equivalent to std::unordered_map for the
 * find/insert/erase subset it implements — asserted by the randomized
 * differential test in tests/test_flat_hash.cc.
 */

#ifndef OSCAR_SIM_FLAT_HASH_HH_
#define OSCAR_SIM_FLAT_HASH_HH_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace oscar
{

/** SplitMix64 finalizer: a fast, well-mixed 64-bit hash. */
inline std::uint64_t
hashU64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * Linear-probing hash map from std::uint64_t to V.
 */
template <typename V>
class FlatHashMap
{
  public:
    /** @param initial_capacity Lower bound on initial slot count. */
    explicit FlatHashMap(std::size_t initial_capacity = 16)
    {
        rehash(slotCountFor(initial_capacity));
    }

    /** Value for key, or null when absent. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t slot = findSlot(key);
        return slot == kNone ? nullptr : &vals[slot];
    }

    const V *
    find(std::uint64_t key) const
    {
        const std::size_t slot = findSlot(key);
        return slot == kNone ? nullptr : &vals[slot];
    }

    /**
     * Value for key, default-constructing (and inserting) it when
     * absent — the std::unordered_map::operator[] contract.
     */
    V &
    refOrInsert(std::uint64_t key)
    {
        maybeGrow();
        std::size_t i = indexFor(key);
        while (used[i]) {
            if (keys[i] == key)
                return vals[i];
            i = (i + 1) & mask;
        }
        used[i] = 1;
        keys[i] = key;
        vals[i] = V{};
        ++count;
        return vals[i];
    }

    /**
     * Insert a (key, value) pair; the key must not be present.
     */
    void
    insert(std::uint64_t key, V value)
    {
        V &slot = refOrInsert(key);
        slot = std::move(value);
    }

    /**
     * Remove a key.
     *
     * @return true when the key was present.
     */
    bool
    erase(std::uint64_t key)
    {
        std::size_t hole = findSlot(key);
        if (hole == kNone)
            return false;
        // Backward-shift deletion: walk the contiguous occupied run
        // after the hole and pull back every element whose probe
        // chain passes through it, keeping all chains unbroken with
        // no tombstone.
        std::size_t j = hole;
        for (;;) {
            j = (j + 1) & mask;
            if (!used[j])
                break;
            const std::size_t ideal = indexFor(keys[j]);
            if (((j - ideal) & mask) >= ((j - hole) & mask)) {
                keys[hole] = keys[j];
                vals[hole] = std::move(vals[j]);
                hole = j;
            }
        }
        used[hole] = 0;
        --count;
        return true;
    }

    /** Number of live entries. */
    std::size_t size() const { return count; }

    /** True when no entry is live. */
    bool empty() const { return count == 0; }

    /** Slot count currently allocated (tests/diagnostics). */
    std::size_t capacity() const { return used.size(); }

    /** Drop every entry, keeping the allocation. */
    void
    clear()
    {
        std::fill(used.begin(), used.end(), 0);
        count = 0;
    }

    /**
     * Grow (never shrink) so that `entries` live entries fit without
     * rehashing.
     */
    void
    reserve(std::size_t entries)
    {
        const std::size_t needed = slotCountFor(entries);
        if (needed > used.size())
            rehash(needed);
    }

  private:
    static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

    std::size_t indexFor(std::uint64_t key) const
    {
        return static_cast<std::size_t>(hashU64(key)) & mask;
    }

    /** Slot of key, or kNone. */
    std::size_t
    findSlot(std::uint64_t key) const
    {
        std::size_t i = indexFor(key);
        while (used[i]) {
            if (keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return kNone;
    }

    /** Smallest power-of-two slot count holding `entries` at <=0.7. */
    static std::size_t
    slotCountFor(std::size_t entries)
    {
        std::size_t slots = 16;
        // load factor cap: count * 10 <= slots * 7
        while (entries * 10 > slots * 7)
            slots <<= 1;
        return slots;
    }

    void
    maybeGrow()
    {
        if ((count + 1) * 10 > used.size() * 7)
            rehash(used.size() * 2);
    }

    void
    rehash(std::size_t new_slots)
    {
        oscar_assert((new_slots & (new_slots - 1)) == 0);
        oscar_assert(new_slots > count);
        std::vector<std::uint8_t> old_used = std::move(used);
        std::vector<std::uint64_t> old_keys = std::move(keys);
        std::vector<V> old_vals = std::move(vals);

        used.assign(new_slots, 0);
        keys.assign(new_slots, 0);
        vals.assign(new_slots, V{});
        mask = new_slots - 1;

        for (std::size_t i = 0; i < old_used.size(); ++i) {
            if (!old_used[i])
                continue;
            std::size_t j = indexFor(old_keys[i]);
            while (used[j])
                j = (j + 1) & mask;
            used[j] = 1;
            keys[j] = old_keys[i];
            vals[j] = std::move(old_vals[i]);
        }
    }

    std::vector<std::uint8_t> used;
    std::vector<std::uint64_t> keys;
    std::vector<V> vals;
    std::size_t mask = 0;
    std::size_t count = 0;
};

} // namespace oscar

#endif // OSCAR_SIM_FLAT_HASH_HH_
