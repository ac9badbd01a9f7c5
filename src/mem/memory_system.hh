/**
 * @file
 * The full memory hierarchy: per-core private L1I/L1D/L2 tag stores, a
 * MESI directory behind a fixed-latency point-to-point interconnect
 * (a request to the directory and its response each cross one
 * MemTimings::interconnectHop), and uniform-latency main memory
 * (Table II of the paper).
 *
 * Accesses resolve atomically: state is updated and the full latency of
 * the access is returned to the caller, which stalls the in-order core
 * for that long (the abstraction gem5 calls "atomic mode with timing
 * annotations"). Contention is modelled where the paper models it — at
 * the non-SMT OS core via an explicit request queue — not inside the
 * fabric.
 */

#ifndef OSCAR_MEM_MEMORY_SYSTEM_HH_
#define OSCAR_MEM_MEMORY_SYSTEM_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace oscar
{

/** Kind of memory reference. */
enum class AccessType : std::uint8_t
{
    InstrFetch,
    Read,
    Write,
};

/** Execution context issuing the reference, for stat attribution. */
enum class ExecContext : std::uint8_t
{
    User,
    Os,
};

/** Where the data was ultimately supplied from. */
enum class AccessSource : std::uint8_t
{
    L1,
    L2,
    RemoteCache, ///< cache-to-cache transfer
    Memory,
};

/** Outcome of one memory reference. */
struct AccessResult
{
    /** Total cycles the reference occupied the core. */
    Cycle latency = 0;
    /** Supply point. */
    AccessSource source = AccessSource::L1;
    /** True when other cores' copies were invalidated. */
    bool invalidatedRemote = false;
    /** True when the reference paid an S->M upgrade transaction. */
    bool upgrade = false;
    /**
     * MESI state the line was installed with in the requester's L2 by
     * an L2-miss fill; Invalid when the reference did not fill the L2.
     */
    MesiState filled = MesiState::Invalid;
};

/**
 * Packed memory reference for MemorySystem::accessBatch: the access
 * kind lives in the top two bits, the byte address in the low 62
 * (simulated physical addresses are far below 2^62; asserted when a
 * reference is packed). One 8-byte word per reference keeps a whole
 * generated block in a few host cache lines.
 */
struct PackedRef
{
    static constexpr unsigned kKindShift = 62;
    static constexpr std::uint64_t kAddrMask =
        (std::uint64_t{1} << kKindShift) - 1;
    static constexpr std::uint64_t kInstrFetch = 0;
    static constexpr std::uint64_t kRead = 1;
    static constexpr std::uint64_t kWrite = 2;

    /** Pack one reference. */
    static std::uint64_t
    make(Addr byte_addr, std::uint64_t kind)
    {
        oscar_assert((byte_addr & ~kAddrMask) == 0);
        return byte_addr | (kind << kKindShift);
    }
};

/** Latency parameters of the hierarchy (Table II + coherence costs). */
struct MemTimings
{
    Cycle l1Hit = 1;
    Cycle l2Hit = 12;
    Cycle directoryLookup = 20;
    Cycle cacheToCache = 25;
    Cycle invalidateAck = 20;
    Cycle memory = 350;
    Cycle interconnectHop = 10;
};

/** Geometry of one core's private hierarchy (Table II defaults). */
struct HierarchyGeometry
{
    CacheGeometry l1i{32 * 1024, 2, 64, 1};
    CacheGeometry l1d{32 * 1024, 2, 64, 1};
    CacheGeometry l2{1024 * 1024, 16, 64, 12};
};

/**
 * Per-core, per-context cache statistics. Lifetime counts: they are
 * never reset, and a measured region is the difference of two copies
 * (operator-).
 */
struct CoreMemStats
{
    RatioStat l1i;
    RatioStat l1d;
    RatioStat l2User;
    RatioStat l2Os;
    std::uint64_t c2cTransfers = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t invalidationsReceived = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t memoryFetches = 0;

    /** Combined L2 hit rate across contexts. */
    double l2HitRate() const;

    /** Events counted since `mark`, an earlier copy of these stats. */
    CoreMemStats operator-(const CoreMemStats &mark) const;
};

/**
 * The coherent multi-core memory hierarchy.
 */
class MemorySystem
{
  public:
    /**
     * @param num_cores Cores with private hierarchies (1..64).
     * @param geometry Per-core cache geometry (same for all cores).
     * @param timings Latency parameters.
     */
    MemorySystem(unsigned num_cores, const HierarchyGeometry &geometry,
                 const MemTimings &timings);

    /**
     * Snapshot copy: duplicates every tag store, the directory and all
     * statistics. Registry polls stay bound to the original, so the
     * copy starts unregistered (registerMetrics() may be called on it).
     */
    MemorySystem(const MemorySystem &other) = default;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Perform one reference and return its latency and classification.
     *
     * @param core Issuing core.
     * @param byte_addr Byte address.
     * @param type Fetch/read/write.
     * @param ctx User or OS execution, for stat attribution.
     */
    AccessResult access(CoreId core, Addr byte_addr, AccessType type,
                        ExecContext ctx);

    /**
     * Perform a block of packed references (see PackedRef) in order
     * and return the total pipeline-stall cycles they cost — the sum
     * over the block of max(latency - 1, 0), the same quantity the
     * execution engine accumulates per reference around access().
     *
     * State transitions, statistics and latencies are reference-for-
     * reference identical to looping over access(); the batch form
     * exists purely for speed. L1 hit/miss tallies are accumulated in
     * registers and flushed once per block (no mid-segment observer
     * exists: metric sampling and tracing only run between system
     * steps, never inside a segment).
     */
    Cycle accessBatch(CoreId core, ExecContext ctx,
                      const std::uint64_t *refs, std::size_t count);

    /** Number of cores. */
    unsigned numCores() const { return static_cast<unsigned>(cores.size()); }

    /** Lifetime statistics for one core. */
    const CoreMemStats &stats(CoreId core) const;

    /**
     * Windowed L2 hit rate across the given cores since the last
     * resetWindow() — the feedback signal for dynamic-N estimation
     * (Section III-B averages the user and OS cores' L2 hit rates).
     */
    double windowL2HitRate() const;

    /** Start a new measurement window. */
    void resetWindow();

    /** Tag-store access to a core's L2 (tests/inspection). */
    const SetAssocCache &l2(CoreId core) const;

    /** Tag-store access to a core's L1D (tests/inspection). */
    const SetAssocCache &l1d(CoreId core) const;

    /** Tag-store access to a core's L1I (tests/inspection). */
    const SetAssocCache &l1i(CoreId core) const;

    /** The directory (tests/inspection). */
    const Directory &directory() const { return dir; }

    /** Drop all cached state (between experiment phases). */
    void invalidateAll();

    /**
     * Register this hierarchy's metrics under `mem.` in the registry:
     * polls of every CoreMemStats counter (names like
     * `mem.core0.l2.user.hits`), the caches' lifetime eviction
     * counts, a `mem.flushes` counter for full-hierarchy
     * invalidations, and a `mem.directory.lines` gauge. The registry
     * must not sample after this object is destroyed.
     */
    void registerMetrics(MetricRegistry &registry);

    /** Timings this hierarchy was built with. */
    const MemTimings &timings() const { return lat; }

  private:
    /**
     * One core's private hierarchy, held by value: the three tag
     * stores of a core sit contiguously, and the access hot path
     * reaches them without a unique_ptr indirection per level. The
     * `cores` vector is sized once in the constructor and never
     * resized, so addresses of these caches are stable.
     */
    struct CoreCaches
    {
        SetAssocCache l1i;
        SetAssocCache l1d;
        SetAssocCache l2;
    };

    /** Handle an L2 miss: directory transaction + fill. */
    AccessResult handleL2Miss(CoreId core, Addr line_addr, bool is_write,
                              ExecContext ctx);

    /**
     * Everything an access does after its L1 lookup missed: L2 lookup
     * and stats, upgrade or miss handling, L1 fill. Adds the post-L1
     * latency onto result.latency and fills source/flags. Shared by
     * the scalar access() and the batched accessBatch() so the two
     * paths cannot drift.
     */
    void missPath(CoreId core, Addr line_addr, bool is_instr,
                  bool is_write, ExecContext ctx, AccessResult &result);

    /** Pay for and perform an S->M upgrade for a line resident at core. */
    Cycle upgradeLine(CoreId core, Addr line_addr);

    /**
     * Invalidate every cached copy of a line outside @p except,
     * charging per-sharer invalidation stats.
     * Directory bookkeeping is the caller's: it holds the line's slot
     * and rewrites the sharer set in one shot afterwards.
     */
    unsigned invalidateSharers(const DirEntry &entry, Addr line_addr,
                               CoreId except);

    /** Insert into L2 handling eviction bookkeeping. */
    void fillL2(CoreId core, Addr line_addr, MesiState state);

    /**
     * Insert into the right L1 with the state the requester's L2 now
     * holds the line in. L1D entries thereby *mirror* the L2's MESI
     * state, so the write-hit path reads permission from the L1 way it
     * just hit instead of re-scanning the 16-way L2 — the invariant is
     * that a line resident in a core's L1D always carries that core's
     * current L2 state. Every L2 state change for a possibly-L1D-
     * resident line re-syncs (upgradeLine, the silent E->M sites, the
     * cache-to-cache read downgrade); invalidations remove the line
     * from both levels, which preserves the invariant trivially. L1I
     * entries store the fill-time state too, but it is advisory only —
     * fetch handling never consults it for permissions.
     */
    void fillL1(CoreId core, Addr line_addr, bool instr, MesiState state);

    std::vector<CoreCaches> cores;
    std::vector<CoreMemStats> coreStats;
    Directory dir;
    MemTimings lat;
    unsigned lineShift;
    /** Full-hierarchy invalidations (thread-migration flushes). */
    std::uint64_t flushCount = 0;

    // Measurement window for the threshold controller feedback.
    std::uint64_t windowL2Hits = 0;
    std::uint64_t windowL2Accesses = 0;
};

} // namespace oscar

#endif // OSCAR_MEM_MEMORY_SYSTEM_HH_
