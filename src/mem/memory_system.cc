/**
 * @file
 * Implementation of the coherent memory hierarchy.
 */

#include "mem/memory_system.hh"

#include <bit>

#include "sim/logging.hh"

namespace oscar
{

double
CoreMemStats::l2HitRate() const
{
    const std::uint64_t hits = l2User.hits() + l2Os.hits();
    const std::uint64_t total = l2User.total() + l2Os.total();
    if (total == 0)
        return 0.0;
    return static_cast<double>(hits) / static_cast<double>(total);
}

CoreMemStats
CoreMemStats::operator-(const CoreMemStats &mark) const
{
    CoreMemStats since;
    since.l1i = l1i - mark.l1i;
    since.l1d = l1d - mark.l1d;
    since.l2User = l2User - mark.l2User;
    since.l2Os = l2Os - mark.l2Os;
    since.c2cTransfers = c2cTransfers - mark.c2cTransfers;
    since.invalidationsSent = invalidationsSent - mark.invalidationsSent;
    since.invalidationsReceived =
        invalidationsReceived - mark.invalidationsReceived;
    since.upgrades = upgrades - mark.upgrades;
    since.memoryFetches = memoryFetches - mark.memoryFetches;
    return since;
}

MemorySystem::MemorySystem(unsigned num_cores,
                           const HierarchyGeometry &geometry,
                           const MemTimings &timings)
    : coreStats(num_cores), dir(num_cores), lat(timings)
{
    if (num_cores == 0)
        oscar_fatal("memory system needs at least one core");
    if (geometry.l1i.lineBytes != geometry.l2.lineBytes ||
        geometry.l1d.lineBytes != geometry.l2.lineBytes) {
        oscar_fatal("L1 and L2 line sizes must match");
    }
    lineShift = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(geometry.l2.lineBytes)));

    cores.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c) {
        const std::string prefix = "core" + std::to_string(c);
        cores.push_back(CoreCaches{
            SetAssocCache(prefix + ".l1i", geometry.l1i),
            SetAssocCache(prefix + ".l1d", geometry.l1d),
            SetAssocCache(prefix + ".l2", geometry.l2)});
    }
}

const CoreMemStats &
MemorySystem::stats(CoreId core) const
{
    oscar_assert(core < coreStats.size());
    return coreStats[core];
}

const SetAssocCache &
MemorySystem::l2(CoreId core) const
{
    oscar_assert(core < cores.size());
    return cores[core].l2;
}

const SetAssocCache &
MemorySystem::l1d(CoreId core) const
{
    oscar_assert(core < cores.size());
    return cores[core].l1d;
}

const SetAssocCache &
MemorySystem::l1i(CoreId core) const
{
    oscar_assert(core < cores.size());
    return cores[core].l1i;
}

void
MemorySystem::invalidateAll()
{
    for (CoreCaches &cc : cores) {
        cc.l1i.invalidateAll();
        cc.l1d.invalidateAll();
        cc.l2.invalidateAll();
    }
    dir.clear();
    ++flushCount;
}

void
MemorySystem::registerMetrics(MetricRegistry &registry)
{
    // `cores` and `coreStats` are sized once in the constructor, so
    // the element addresses the polls capture stay valid.
    for (unsigned c = 0; c < cores.size(); ++c) {
        const std::string prefix = "mem.core" + std::to_string(c) + ".";
        const CoreMemStats *s = &coreStats[c];
        const auto ratio = [&](const std::string &name,
                               const RatioStat CoreMemStats::*field) {
            registry.counterFn(prefix + name + ".hits",
                               [s, field] { return (s->*field).hits(); });
            registry.counterFn(prefix + name + ".accesses",
                               [s, field] { return (s->*field).total(); });
        };
        const auto count = [&](const std::string &name,
                               std::uint64_t CoreMemStats::*field) {
            registry.counterFn(prefix + name,
                               [s, field] { return s->*field; });
        };
        ratio("l1i", &CoreMemStats::l1i);
        ratio("l1d", &CoreMemStats::l1d);
        ratio("l2.user", &CoreMemStats::l2User);
        ratio("l2.os", &CoreMemStats::l2Os);
        count("c2c_transfers", &CoreMemStats::c2cTransfers);
        count("inval.sent", &CoreMemStats::invalidationsSent);
        count("inval.received", &CoreMemStats::invalidationsReceived);
        count("upgrades", &CoreMemStats::upgrades);
        count("memory_fetches", &CoreMemStats::memoryFetches);
        const SetAssocCache *l2c = &cores[c].l2;
        registry.counterFn(prefix + "l2.evictions",
                           [l2c] { return l2c->evictions(); });
        const SetAssocCache *l1dc = &cores[c].l1d;
        registry.counterFn(prefix + "l1d.evictions",
                           [l1dc] { return l1dc->evictions(); });
    }
    registry.counterFn("mem.flushes", [this] { return flushCount; });
    registry.gauge("mem.directory.lines", [this] {
        return static_cast<double>(dir.trackedLines());
    });
}

double
MemorySystem::windowL2HitRate() const
{
    if (windowL2Accesses == 0)
        return 0.0;
    return static_cast<double>(windowL2Hits) /
           static_cast<double>(windowL2Accesses);
}

void
MemorySystem::resetWindow()
{
    windowL2Hits = 0;
    windowL2Accesses = 0;
}

unsigned
MemorySystem::invalidateSharers(const DirEntry &entry, Addr line_addr,
                                CoreId except)
{
    unsigned invalidated = 0;
    std::uint64_t mask = entry.sharerMask & ~(1ULL << except);
    while (mask != 0) {
        const unsigned c =
            static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        cores[c].l2.invalidate(line_addr);
        cores[c].l1d.invalidate(line_addr);
        cores[c].l1i.invalidate(line_addr);
        ++coreStats[c].invalidationsReceived;
        ++invalidated;
    }
    return invalidated;
}

void
MemorySystem::fillL2(CoreId core, Addr line_addr, MesiState state)
{
    // The line just missed in this L2, so skip insert()'s residency
    // re-scan.
    auto evicted = cores[core].l2.insertMiss(line_addr, state);
    if (evicted) {
        // Inclusion: the L1s may not keep a line the L2 dropped.
        cores[core].l1d.invalidate(evicted->lineAddr);
        cores[core].l1i.invalidate(evicted->lineAddr);
        dir.removeSharer(evicted->lineAddr, core);
        // A Modified victim is written back; the writeback is off the
        // critical path and charged no latency, matching the paper's
        // uniform-latency memory model.
    }
}

void
MemorySystem::fillL1(CoreId core, Addr line_addr, bool instr,
                     MesiState state)
{
    SetAssocCache &l1 = instr ? cores[core].l1i : cores[core].l1d;
    // The authoritative MESI state lives in the L2; the L1 entry
    // mirrors it so write hits resolve permission without an L2 scan
    // (see the declaration for the sync invariant). Fills only happen
    // after an L1 miss on the line, hence insertMiss.
    l1.insertMiss(line_addr, state);
}

Cycle
MemorySystem::upgradeLine(CoreId core, Addr line_addr)
{
    // S->M upgrade: request to directory, invalidations to sharers,
    // acks back to the requester. The entry is read once for the
    // sharer set and then rewritten in place.
    Cycle latency = 2 * lat.interconnectHop + lat.directoryLookup;
    const Directory::Slot slot = dir.findOrInsert(line_addr);
    const DirEntry entry = dir.entryAt(slot);
    // The requester holds the line (Shared) in its L2, so the entry
    // was already present and non-empty.
    oscar_assert(entry.hasSharer(core));
    const unsigned invalidated =
        invalidateSharers(entry, line_addr, core);
    if (invalidated > 0)
        latency += lat.invalidateAck;
    dir.setExclusiveAt(slot, core);
    cores[core].l2.setState(line_addr, MesiState::Modified);
    cores[core].l1d.setStateIfPresent(line_addr, MesiState::Modified);
    ++coreStats[core].upgrades;
    coreStats[core].invalidationsSent += invalidated;
    return latency;
}

AccessResult
MemorySystem::handleL2Miss(CoreId core, Addr line_addr, bool is_write,
                           ExecContext ctx)
{
    (void)ctx;
    AccessResult result;
    result.latency = 2 * lat.interconnectHop + lat.directoryLookup;

    // The entry is read once and rewritten in place by the arm taken.
    const Directory::Slot slot = dir.findOrInsert(line_addr);
    const DirEntry entry = dir.entryAt(slot);
    const bool remote_exclusive =
        entry.exclusive && !entry.hasSharer(core);

    if (remote_exclusive) {
        // Another core owns the line in E or M: cache-to-cache supply.
        const CoreId owner = entry.owner();
        result.latency += lat.cacheToCache;
        result.source = AccessSource::RemoteCache;
        ++coreStats[core].c2cTransfers;
        if (is_write) {
            cores[owner].l2.invalidate(line_addr);
            cores[owner].l1d.invalidate(line_addr);
            cores[owner].l1i.invalidate(line_addr);
            ++coreStats[owner].invalidationsReceived;
            ++coreStats[core].invalidationsSent;
            result.invalidatedRemote = true;
            dir.setExclusiveAt(slot, core);
            result.filled = MesiState::Modified;
        } else {
            // Owner downgrades to Shared (writeback folded into the
            // cache-to-cache latency); its L1D mirror follows.
            cores[owner].l2.setState(line_addr, MesiState::Shared);
            cores[owner].l1d.setStateIfPresent(line_addr,
                                               MesiState::Shared);
            dir.addSharerAt(slot, core);
            result.filled = MesiState::Shared;
        }
    } else if (!entry.uncached() && !entry.hasSharer(core)) {
        // Shared at one or more other cores.
        if (is_write) {
            const unsigned invalidated =
                invalidateSharers(entry, line_addr, core);
            result.latency += lat.invalidateAck + lat.memory;
            result.source = AccessSource::Memory;
            result.invalidatedRemote = invalidated > 0;
            coreStats[core].invalidationsSent += invalidated;
            ++coreStats[core].memoryFetches;
            dir.setExclusiveAt(slot, core);
            result.filled = MesiState::Modified;
        } else {
            result.latency += lat.memory;
            result.source = AccessSource::Memory;
            ++coreStats[core].memoryFetches;
            dir.addSharerAt(slot, core);
            result.filled = MesiState::Shared;
        }
    } else {
        // Uncached anywhere: fetch from memory.
        result.latency += lat.memory;
        result.source = AccessSource::Memory;
        ++coreStats[core].memoryFetches;
        dir.setExclusiveAt(slot, core);
        result.filled =
            is_write ? MesiState::Modified : MesiState::Exclusive;
    }
    fillL2(core, line_addr, result.filled);
    return result;
}

void
MemorySystem::missPath(CoreId core, Addr line_addr, bool is_instr,
                       bool is_write, ExecContext ctx,
                       AccessResult &result)
{
    CoreCaches &cc = cores[core];
    CoreMemStats &cs = coreStats[core];

    const MesiState l2_state = cc.l2.access(line_addr);
    result.latency += lat.l2Hit;
    const bool l2_usable = l2_state != MesiState::Invalid;
    RatioStat &l2_stat = ctx == ExecContext::User ? cs.l2User : cs.l2Os;

    if (l2_usable) {
        l2_stat.add(true);
        ++windowL2Hits;
        ++windowL2Accesses;
        MesiState final_state = l2_state;
        if (is_write && !canWrite(l2_state)) {
            result.latency += upgradeLine(core, line_addr);
            result.upgrade = true;
            final_state = MesiState::Modified;
        } else if (is_write && l2_state == MesiState::Exclusive) {
            cc.l2.setState(line_addr, MesiState::Modified);
            final_state = MesiState::Modified;
        }
        fillL1(core, line_addr, is_instr, final_state);
        result.source = AccessSource::L2;
        return;
    }

    l2_stat.add(false);
    ++windowL2Accesses;

    const AccessResult miss = handleL2Miss(core, line_addr, is_write, ctx);
    result.latency += miss.latency;
    result.source = miss.source;
    result.invalidatedRemote = miss.invalidatedRemote;
    result.filled = miss.filled;
    fillL1(core, line_addr, is_instr, miss.filled);
}

AccessResult
MemorySystem::access(CoreId core, Addr byte_addr, AccessType type,
                     ExecContext ctx)
{
    oscar_assert(core < cores.size());
    const Addr line_addr = byte_addr >> lineShift;
    const bool is_instr = type == AccessType::InstrFetch;
    const bool is_write = type == AccessType::Write;
    CoreCaches &cc = cores[core];
    CoreMemStats &cs = coreStats[core];

    AccessResult result;
    result.latency = lat.l1Hit;

    SetAssocCache &l1 = is_instr ? cc.l1i : cc.l1d;
    RatioStat &l1_stat = is_instr ? cs.l1i : cs.l1d;
    const MesiState l1_state = l1.access(line_addr);
    const bool l1_hit = l1_state != MesiState::Invalid;
    l1_stat.add(l1_hit);

    if (l1_hit) {
        if (is_write) {
            // The L1D entry mirrors the L2's MESI state (see fillL1),
            // so permission resolves without re-scanning the L2.
            if (!canWrite(l1_state)) {
                result.latency += upgradeLine(core, line_addr);
                result.upgrade = true;
            } else if (l1_state == MesiState::Exclusive) {
                // Silent E->M upgrade, in both levels.
                cc.l2.setState(line_addr, MesiState::Modified);
                l1.setStateIfPresent(line_addr, MesiState::Modified);
            }
        }
        result.source = AccessSource::L1;
        return result;
    }

    missPath(core, line_addr, is_instr, is_write, ctx, result);
    return result;
}

Cycle
MemorySystem::accessBatch(CoreId core, ExecContext ctx,
                          const std::uint64_t *refs, std::size_t count)
{
    oscar_assert(core < cores.size());
    CoreCaches &cc = cores[core];
    CoreMemStats &cs = coreStats[core];

    // Batch-local L1 tallies, flushed once below. Everything past an
    // L1 hit is rare enough that it records its stats directly through
    // the same code the scalar path runs (missPath/upgradeLine).
    // Indexed by is_instr so the tally update is branch-free — the
    // fetch/data interleaving is effectively random and a conditional
    // here would mispredict constantly.
    std::uint64_t l1Hits[2] = {0, 0};
    std::uint64_t l1Misses[2] = {0, 0};
    SetAssocCache *const l1s[2] = {&cc.l1d, &cc.l1i};
    const Cycle l1HitStall = lat.l1Hit > 1 ? lat.l1Hit - 1 : 0;
    Cycle stall = 0;

    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t ref = refs[i];
        const std::uint64_t kind = ref >> PackedRef::kKindShift;
        const Addr line_addr = (ref & PackedRef::kAddrMask) >> lineShift;
        const std::size_t is_instr = kind == PackedRef::kInstrFetch;
        SetAssocCache &l1 = *l1s[is_instr];
        const std::size_t idx = l1.lookupTouch(line_addr);
        if (idx != SetAssocCache::kNone) [[likely]] {
            ++l1Hits[is_instr];
            stall += l1HitStall;
            // Writes to an already-writable line (the steady state)
            // fall through this single rarely-taken test; reads fold
            // into it for free.
            const MesiState l1_state = l1.stateAt(idx);
            if (kind == PackedRef::kWrite &&
                l1_state != MesiState::Modified) [[unlikely]] {
                if (l1_state == MesiState::Exclusive) {
                    // Silent E->M upgrade, in both levels.
                    cc.l2.setState(line_addr, MesiState::Modified);
                    l1.setStateAt(idx, MesiState::Modified);
                } else {
                    // Shared: paid S->M upgrade. Replace the hoisted
                    // hit-stall with the exact per-reference formula.
                    stall -= l1HitStall;
                    const Cycle latency =
                        lat.l1Hit + upgradeLine(core, line_addr);
                    if (latency > 1)
                        stall += latency - 1;
                }
            }
            continue;
        }

        ++l1Misses[is_instr];
        AccessResult result;
        result.latency = lat.l1Hit;
        missPath(core, line_addr, is_instr != 0,
                 kind == PackedRef::kWrite, ctx, result);
        if (result.latency > 1)
            stall += result.latency - 1;
    }

    cs.l1i.addMany(l1Hits[1], l1Hits[1] + l1Misses[1]);
    cs.l1d.addMany(l1Hits[0], l1Hits[0] + l1Misses[0]);
    cc.l1i.addLookupStats(l1Hits[1], l1Misses[1]);
    cc.l1d.addLookupStats(l1Hits[0], l1Misses[0]);
    return stall;
}

} // namespace oscar
