/**
 * @file
 * Implementation of the line-indexed MESI directory.
 */

#include "mem/directory.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace oscar
{

namespace
{
/** Smallest array length, in lines (144 KiB of entries). */
constexpr std::size_t kMinLines = 16384;
} // namespace

Directory::Directory(unsigned num_cores)
    : cores(num_cores)
{
    if (num_cores == 0 || num_cores > 64)
        oscar_fatal("directory supports 1..64 cores, got %u", num_cores);
}

void
Directory::grow(Addr line_addr)
{
    if (line_addr >= kMaxLines) {
        oscar_fatal("directory: line address %llu is past the %llu-line "
                    "ceiling (is the cache line size too small?)",
                    static_cast<unsigned long long>(line_addr),
                    static_cast<unsigned long long>(kMaxLines));
    }
    // Grow to the next power of two with exact capacity, so every
    // directory allocates from the same few size classes and the
    // allocator reuses them as sweep systems are cloned and dropped.
    // Growing in fixed chunks, or leaving the capacity to the vectors,
    // left freed blocks of every size behind and cost up to 27 % of a
    // sweep's peak RSS.
    const std::size_t lines = std::max<std::size_t>(
        std::bit_ceil(static_cast<std::size_t>(line_addr) + 1), kMinLines);
    sharer.reserve(lines);
    excl.reserve(lines);
    sharer.resize(lines, 0);
    excl.resize(lines, 0);
}

void
Directory::clear()
{
    std::fill(sharer.begin(), sharer.end(), 0);
    std::fill(excl.begin(), excl.end(), 0);
    count = 0;
}

} // namespace oscar
