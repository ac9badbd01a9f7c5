/**
 * @file
 * Implementation of the stream tape.
 */

#include "system/stream_tape.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "system/experiment.hh"

namespace oscar
{

std::atomic<std::size_t> StreamTape::liveTapes{0};

StreamTape::StreamTape(const SystemConfig &config)
    : key(sweepWarmupKey(config)),
      lineShift(static_cast<unsigned>(std::countr_zero(
          static_cast<std::uint64_t>(config.geometry.l2.lineBytes))))
{
    ++liveTapes;
}

StreamTape::~StreamTape()
{
    --liveTapes;
}

void
StreamTape::recordToken(const WorkloadToken &token)
{
    oscar_assert(!sealed);
    entries.push_back(Entry{token, 0, 0});
}

void
StreamTape::recordExtendedLength(InstCount length)
{
    oscar_assert(!sealed && !entries.empty() &&
                 entries.back().token.kind == TokenKind::OsCall);
    entries.back().extended = length;
}

void
StreamTape::recordRefs(const std::uint64_t *block, std::size_t count)
{
    oscar_assert(!sealed && !entries.empty());
    entries.back().refs += static_cast<std::uint32_t>(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t packed = block[i];
        const std::uint64_t line =
            (packed & PackedRef::kAddrMask) >> lineShift;
        if (line >> kLineBits != 0) {
            oscar_fatal("stream tape: line 0x%llx exceeds the tape's "
                        "%u-bit line field",
                        static_cast<unsigned long long>(line), kLineBits);
        }
        const std::uint64_t word =
            line | (packed >> PackedRef::kKindShift) << kLineBits;
        const std::size_t slot = refs % kChunkRefs;
        if (slot == 0)
            chunks.push_back(
                std::make_unique<std::uint8_t[]>(kChunkRefs * kWordBytes));
        std::uint8_t *out = chunks.back().get() + slot * kWordBytes;
        out[0] = static_cast<std::uint8_t>(word);
        out[1] = static_cast<std::uint8_t>(word >> 8);
        out[2] = static_cast<std::uint8_t>(word >> 16);
        ++refs;
    }
}

void
StreamTape::finish()
{
    oscar_assert(!sealed);
    entries.shrink_to_fit();
    sealed = true;
}

const WorkloadToken &
StreamTape::Reader::nextToken()
{
    oscar_assert(expect == Expect::Token);
    if (entry == tape->entries.size()) {
        oscar_fatal("stream tape exhausted after %zu tokens: the "
                    "replaying point runs past the recorded horizon",
                    tape->entries.size());
    }
    const WorkloadToken &token = tape->entries[entry].token;
    expect = token.kind == TokenKind::OsCall ? Expect::Length
                                              : Expect::Segment;
    return token;
}

InstCount
StreamTape::Reader::extendedLength()
{
    oscar_assert(expect == Expect::Length);
    expect = Expect::Segment;
    return tape->entries[entry].extended;
}

namespace
{

/** Per-thread decode buffer; replaySegment() is a leaf. */
std::vector<std::uint64_t> &
decodeBuffer()
{
    thread_local std::vector<std::uint64_t> buffer(4096);
    return buffer;
}

} // namespace

Cycle
StreamTape::Reader::replaySegment(MemorySystem &mem, CoreId core,
                                  ExecContext ctx)
{
    oscar_assert(expect == Expect::Segment);
    expect = Expect::Token;
    std::vector<std::uint64_t> &buffer = decodeBuffer();
    const unsigned shift = tape->lineShift;
    const std::uint64_t end = ref + tape->entries[entry++].refs;
    Cycle stall = 0;
    while (ref < end) {
        // Decode up to a buffer's worth, never crossing a chunk.
        const std::size_t slot = ref % kChunkRefs;
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>({end - ref, kChunkRefs - slot,
                                     buffer.size()}));
        const std::uint8_t *in =
            tape->chunks[ref / kChunkRefs].get() + slot * kWordBytes;
        for (std::size_t i = 0; i < count; ++i, in += kWordBytes) {
            const std::uint64_t word = std::uint64_t{in[0]} |
                                       std::uint64_t{in[1]} << 8 |
                                       std::uint64_t{in[2]} << 16;
            buffer[i] = (word & ((std::uint64_t{1} << kLineBits) - 1))
                            << shift |
                        (word >> kLineBits) << PackedRef::kKindShift;
        }
        stall += mem.accessBatch(core, ctx, buffer.data(), count);
        ref += count;
    }
    return stall;
}

} // namespace oscar
