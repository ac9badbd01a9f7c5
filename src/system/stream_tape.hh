/**
 * @file
 * Recorded reference streams for single-thread sweep points.
 *
 * A single-thread, segment-mode System consumes its random streams in
 * an order that no policy, threshold or latency can change: every
 * step calls Workload::next, then (for an OS call) the interrupt
 * extension, then the segment's reference generation, and each of
 * those draws only from its own stream. The points of one fork group
 * therefore generate the same measured-region stream. A StreamTape
 * holds that stream once — the tokens, their interrupt-extended
 * lengths and every line-granular reference — so the group's other
 * points replay it and only probe the memory system. DESIGN.md §14a
 * has the eligibility argument, the format and the memory budget.
 */

#ifndef OSCAR_SYSTEM_STREAM_TAPE_HH_
#define OSCAR_SYSTEM_STREAM_TAPE_HH_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/exec_engine.hh"
#include "mem/memory_system.hh"
#include "sim/types.hh"
#include "system/system_config.hh"
#include "workload/workload.hh"

namespace oscar
{

/**
 * One fork group's measured-region stream, recorded once and replayed
 * by any number of systems.
 *
 * Each reference is one 3-byte word: a 22-bit line address and the
 * 2-bit PackedRef kind. The intra-line offset is dropped, since
 * MemorySystem::accessBatch only reads the line. Words are kept in
 * fixed-size chunks, so recording never copies what it has stored.
 *
 * A tape is written by one system (System::recordStreamTape) and is
 * immutable once finish() has run. After that, readers on any number
 * of threads may share it.
 */
class StreamTape
{
  public:
    /** An empty tape for the fork group (sweepWarmupKey) of `config`. */
    explicit StreamTape(const SystemConfig &config);
    ~StreamTape();

    StreamTape(const StreamTape &) = delete;
    StreamTape &operator=(const StreamTape &) = delete;

    /** The fork group the tape belongs to. */
    const std::string &warmupKey() const { return key; }

    // --- Recording (one writer, before finish()) --------------------

    /** Append the next token of the stream. */
    void recordToken(const WorkloadToken &token);

    /** Set the interrupt-extended length of the last OsCall token. */
    void recordExtendedLength(InstCount length);

    /** Append references of the last token's segment. */
    void recordRefs(const std::uint64_t *refs, std::size_t count);

    /** Seal the tape; it is read-only from here on. */
    void finish();

    /** True once finish() has run. */
    bool finished() const { return sealed; }

    // --- Inspection --------------------------------------------------

    /** Tokens on the tape. */
    std::size_t tokenCount() const { return entries.size(); }

    /** References on the tape. */
    std::uint64_t refCount() const { return refs; }

    /** Tapes alive in this process (tests check lifetime with it). */
    static std::size_t live() { return liveTapes.load(); }

    /**
     * Sequential reader. The System calls nextToken(), then for an OS
     * call extendedLength(), then replaySegment(), once per token —
     * the order a live system draws its streams in.
     */
    class Reader
    {
      public:
        Reader() = default;
        explicit Reader(const StreamTape &tape) : tape(&tape) {}

        /** The next token; fatal past the tape's end. */
        const WorkloadToken &nextToken();

        /** Interrupt-extended length of the current OS call. */
        InstCount extendedLength();

        /**
         * Probe the current token's references on `core` and return
         * their stall cycles, as ExecEngine::execute's probes would.
         */
        Cycle replaySegment(MemorySystem &mem, CoreId core,
                            ExecContext ctx);

      private:
        enum class Expect : std::uint8_t
        {
            Token,
            Length,
            Segment,
        };

        const StreamTape *tape = nullptr;
        std::size_t entry = 0;
        std::uint64_t ref = 0;
        Expect expect = Expect::Token;
    };

  private:
    /** One token and where its segment's references live. */
    struct Entry
    {
        WorkloadToken token;
        /** Interrupt-extended length (OsCall only). */
        InstCount extended = 0;
        /** References of the token's segment. */
        std::uint32_t refs = 0;
    };

    static constexpr unsigned kWordBytes = 3;
    static constexpr unsigned kLineBits = 22;
    /** References per chunk (192 KiB of words). */
    static constexpr std::size_t kChunkRefs = std::size_t{1} << 16;

    std::string key;
    unsigned lineShift;
    std::vector<Entry> entries;
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks;
    std::uint64_t refs = 0;
    bool sealed = false;

    static std::atomic<std::size_t> liveTapes;
};

} // namespace oscar

#endif // OSCAR_SYSTEM_STREAM_TAPE_HH_
