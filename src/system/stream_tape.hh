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
 *
 * A StallTape is the second layer: when a group's points differ only
 * in migration latency, every one of them places each segment on the
 * same core, so each segment stalls the same. One of them probes and
 * records every segment's stall; the others walk the stream tape's
 * tokens and read the stalls back.
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
 * A tape is written by one system (see System::attachTapes) and is
 * immutable once finish() has run. After that, readers on any number
 * of threads may share it.
 */
class StreamTape final : public RefBlockSink
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

    /**
     * Append references of the last token's segment; the tape is the
     * tee of the segment's ExecEngine::execute call.
     */
    void consume(const std::uint64_t *refs, std::size_t count) override;

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

        /** Pass the current token's references by, unprobed. */
        void skipSegment();

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

/**
 * One placement class's measured-region stalls, recorded by the
 * class's first point and read back by the rest.
 *
 * The placement class of a point is its sweepPlacementKey(): its
 * whole configuration except the migration latency. Such points
 * decide every off-load alike, so they run each segment of the
 * stream tape on the same core in the same context, and the memory
 * system, driven by the same probes in the same order, answers each
 * with the same stall. The record keeps each segment's core, context,
 * instruction count and stall, plus every core's CoreMemStats at the
 * end of the run; a reader checks each segment it consumes against
 * the record.
 *
 * Written by one system (see System::attachTapes) and immutable once
 * finish() has run; after that any number of readers may share it.
 */
class StallTape
{
  public:
    StallTape();
    ~StallTape();

    StallTape(const StallTape &) = delete;
    StallTape &operator=(const StallTape &) = delete;

    // --- Recording (one writer, before finish()) --------------------

    /** Append one segment and the stall cycles its probes took. */
    void recordSegment(CoreId core, ExecContext ctx,
                       InstCount instructions, Cycle stall);

    /** Seal the record with every core's lifetime cache statistics. */
    void finish(std::vector<CoreMemStats> final_stats);

    /** True once finish() has run. */
    bool finished() const { return sealed; }

    // --- Inspection --------------------------------------------------

    /** Segments on the record. */
    std::size_t segmentCount() const { return segments.size(); }

    /** Cores whose final statistics the record holds. */
    std::size_t coreCount() const { return finalStats.size(); }

    /** A core's lifetime cache statistics when the recording ended. */
    const CoreMemStats &stats(CoreId core) const;

    /** Records alive in this process (tests check lifetime with it). */
    static std::size_t live() { return liveRecords.load(); }

    /**
     * Readers ever attached in this process: the runs that read their
     * stalls instead of probing (tests count them).
     */
    static std::uint64_t replays() { return replayCount.load(); }

    /**
     * Sequential reader with a per-segment check: the segment a
     * replaying system runs must be the recorded one, or the record
     * does not describe its run.
     */
    class Reader
    {
      public:
        Reader() = default;

        /** @param point Names the replaying point in a panic. */
        Reader(const StallTape &tape, std::string point);

        /**
         * The stall of the next segment. Panics, naming the point
         * and the segment, unless the record's next segment ran on
         * `core` in `ctx` over `instructions`.
         */
        Cycle next(CoreId core, ExecContext ctx, InstCount instructions);

        /** Panics unless every recorded segment was read. */
        void expectEnd() const;

      private:
        const StallTape *tape = nullptr;
        std::string point;
        std::size_t segment = 0;
    };

  private:
    struct Segment
    {
        Cycle stall;
        InstCount instructions;
        CoreId core;
        ExecContext ctx;
    };

    std::vector<Segment> segments;
    std::vector<CoreMemStats> finalStats;
    bool sealed = false;

    static std::atomic<std::size_t> liveRecords;
    static std::atomic<std::uint64_t> replayCount;
};

/** What a system does with a tape. */
enum class TapeUse
{
    None,
    Record,
    Replay,
};

/**
 * The tapes a system records or replays (System::attachTapes): its
 * fork group's stream tape and its placement class's stall tape.
 */
struct TapePlan
{
    TapeUse stream = TapeUse::None;
    std::shared_ptr<StreamTape> streamTape;
    TapeUse stall = TapeUse::None;
    std::shared_ptr<StallTape> stallTape;
};

/** A stream tape needs one user thread and no serving front-end. */
inline bool
streamTapeable(const SystemConfig &config)
{
    return config.userCores == 1 && config.serving == nullptr;
}

/**
 * A stall replay rides a stream replay (`stream`) of a point with a
 * non-empty sweepPlacementKey().
 */
bool stallReplayable(const SystemConfig &config, TapeUse stream);

} // namespace oscar

#endif // OSCAR_SYSTEM_STREAM_TAPE_HH_
