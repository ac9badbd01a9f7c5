/**
 * @file
 * Implementation of the set-associative tag store.
 */

#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace oscar
{

std::uint64_t
CacheGeometry::sets() const
{
    const std::uint64_t line_capacity = sizeBytes / lineBytes;
    return line_capacity / assoc;
}

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geometry)
    : label(std::move(name)), geom(geometry)
{
    if (geom.lineBytes == 0 || !std::has_single_bit(
            static_cast<std::uint64_t>(geom.lineBytes))) {
        oscar_fatal("%s: line size %u must be a power of two",
                    label.c_str(), geom.lineBytes);
    }
    if (geom.assoc == 0)
        oscar_fatal("%s: associativity must be positive", label.c_str());
    if (geom.sizeBytes % (static_cast<std::uint64_t>(geom.lineBytes) *
                          geom.assoc) != 0) {
        oscar_fatal("%s: size %llu not divisible by line*assoc",
                    label.c_str(),
                    static_cast<unsigned long long>(geom.sizeBytes));
    }
    numSets = geom.sets();
    if (numSets == 0 || !std::has_single_bit(numSets)) {
        oscar_fatal("%s: set count %llu must be a power of two",
                    label.c_str(),
                    static_cast<unsigned long long>(numSets));
    }
    const std::size_t entries =
        static_cast<std::size_t>(numSets) * geom.assoc;
    tags.assign(entries, kNoTag);
    states.assign(entries, MesiState::Invalid);
    lastUse.assign(entries, 0);
}

void
SetAssocCache::setState(Addr line_addr, MesiState state)
{
    // Invalid would break the tag-sentinel invariant; use invalidate().
    oscar_assert(state != MesiState::Invalid);
    const std::size_t idx = findIndex(line_addr);
    if (idx == kNone) {
        oscar_panic("%s: setState on non-resident line %llu",
                    label.c_str(),
                    static_cast<unsigned long long>(line_addr));
    }
    states[idx] = state;
}

MesiState
SetAssocCache::invalidate(Addr line_addr)
{
    const std::size_t idx = findIndex(line_addr);
    if (idx == kNone)
        return MesiState::Invalid;
    const MesiState old = states[idx];
    tags[idx] = kNoTag;
    states[idx] = MesiState::Invalid;
    lastUse[idx] = 0;
    return old;
}

void
SetAssocCache::invalidateAll()
{
    std::fill(tags.begin(), tags.end(), kNoTag);
    std::fill(states.begin(), states.end(), MesiState::Invalid);
    std::fill(lastUse.begin(), lastUse.end(), 0);
}

std::uint64_t
SetAssocCache::residentLines() const
{
    std::uint64_t count = 0;
    for (const Addr tag : tags) {
        if (tag != kNoTag)
            ++count;
    }
    return count;
}

} // namespace oscar
