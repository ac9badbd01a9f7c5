/**
 * @file
 * Segment execution engine for in-order cores.
 *
 * The simulator never interprets real instructions; a workload or OS
 * service describes each execution segment statistically (how many
 * instructions, which working-set regions it touches, how often, and
 * with what write ratio), and this engine charges cycles for it:
 * 1 cycle per instruction plus the memory-stall cycles returned by the
 * coherent hierarchy. This matches the paper's in-order 1-IPC cores,
 * where all timing variation comes from the memory system.
 */

#ifndef OSCAR_CPU_EXEC_ENGINE_HH_
#define OSCAR_CPU_EXEC_ENGINE_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"
#include "workload/address_space.hh"

namespace oscar
{

/** One weighted data target of a segment. */
struct RegionAccess
{
    AddressRegion *region = nullptr;
    /** Relative probability of a data reference hitting this region. */
    double weight = 1.0;
    /** Fraction of references to this region that are writes. */
    double writeFraction = 0.0;
    /**
     * writeFraction as a precomputed integer Bernoulli threshold —
     * decision-identical to nextBool(writeFraction), without the
     * per-reference integer-to-double conversion.
     */
    BoolThreshold writeThresh{0.0};
};

/**
 * Statistical description of an execution segment's memory behaviour.
 */
class SegmentProfile
{
  public:
    /**
     * @param code Region instruction fetches are drawn from.
     * @param instr_per_data Mean instructions between data references.
     * @param instr_per_fetch Mean instructions between I-line fetches.
     */
    SegmentProfile(AddressRegion *code, double instr_per_data,
                   double instr_per_fetch);

    /**
     * Remapping copy for system snapshots: identical sampling
     * behaviour, but every region pointer translated into the cloned
     * address space.
     */
    SegmentProfile(const SegmentProfile &other, const RegionRemap &remap);

    /** Add a weighted data target; call finalize() afterwards. */
    void addData(AddressRegion *region, double weight,
                 double write_fraction);

    /** Build the sampling table; must be called before execution. */
    void finalize();

    /** Code region. */
    AddressRegion *code() const { return codeRegion; }

    /** Mean instructions between data references. */
    double instrPerData() const { return instrPerDataAccess; }

    /** Mean instructions between I-line fetches. */
    double instrPerFetch() const { return instrPerCodeLine; }

    /** Sample a data target; finalize() must have run. */
    const RegionAccess &
    sampleData(Rng &rng) const
    {
        oscar_assert(alias != nullptr);
        return data[alias->sample(rng)];
    }

    /** True when the profile has at least one data target. */
    bool hasData() const { return !data.empty(); }

    /** True once finalize() has run (or no data was added). */
    bool finalized() const { return alias != nullptr || data.empty(); }

    /**
     * Division-free reduction for the burst-span draw, bound
     * max(1, floor(2 * instrPerData())) — the value execute() used to
     * recompute (and nextBounded used to divide by) per draw.
     */
    const FastBound &burstBound() const { return burstSpan; }

  private:
    AddressRegion *codeRegion;
    double instrPerDataAccess;
    double instrPerCodeLine;
    std::vector<RegionAccess> data;
    std::unique_ptr<AliasTable> alias;
    FastBound burstSpan;
};

/** Outcome of executing one segment. */
struct ExecResult
{
    /** Cycles the segment occupied the core. */
    Cycle cycles = 0;
    /** Data references issued. */
    std::uint64_t dataAccesses = 0;
    /** Instruction-line fetches issued. */
    std::uint64_t fetches = 0;
};

/**
 * Consumer of the packed-reference blocks ExecEngine::generate()
 * produces (see PackedRef), handed over in program order.
 */
class RefBlockSink
{
  public:
    virtual ~RefBlockSink() = default;

    /** Take one block of `count` packed references. */
    virtual void consume(const std::uint64_t *refs, std::size_t count) = 0;
};

/**
 * Stateless executor: charges a segment's instructions and memory
 * references against a core's hierarchy.
 *
 * generate() is the one reference-generation loop. It draws a
 * segment's references from the RNG into blocks of packed words and
 * hands each block to a sink. execute(), the production kernel, is
 * generate() with a sink that runs every block through
 * MemorySystem::accessBatch; recording a stream tape (see
 * system/stream_tape.hh) is generate() with a sink that also keeps
 * the block. executeReference() is the original
 * one-reference-at-a-time loop, kept verbatim as the behavioural
 * reference (the pattern of the memory oracles in
 * tests/reference_cache.hh and tests/reference_directory.hh). The two are interchangeable — identical ExecResult,
 * RNG stream position, memory/directory state and statistics —
 * because reference *generation* never depends on access outcomes:
 * every RNG draw in the loop is conditioned only on the profile and
 * the regions' own generator state, so hoisting generation ahead of
 * the probes reorders nothing observable. The randomized differential
 * test in tests/test_exec_batch.cc holds the two paths together.
 */
class ExecEngine
{
  public:
    /**
     * Generate a segment's references without probing them.
     *
     * @param instructions Retired-instruction budget of the segment.
     * @param profile Memory behaviour description.
     * @param rng Deterministic stream for reference generation.
     * @param sink Receives every block, the last one possibly partial.
     * @return The segment's instruction cycles (one per instruction)
     *         and reference counts; the caller adds the stall cycles
     *         its sink's probes cost.
     */
    static ExecResult generate(InstCount instructions,
                               const SegmentProfile &profile, Rng &rng,
                               RefBlockSink &sink);

    /**
     * Execute a segment (batched kernel).
     *
     * @param mem Coherent hierarchy to charge references against.
     * @param core Core the segment runs on.
     * @param ctx User or OS attribution.
     * @param instructions Retired-instruction budget of the segment.
     * @param profile Memory behaviour description.
     * @param rng Deterministic stream for reference generation.
     */
    static ExecResult execute(MemorySystem &mem, CoreId core,
                              ExecContext ctx, InstCount instructions,
                              const SegmentProfile &profile, Rng &rng);

    /** Execute a segment through the scalar reference loop. */
    static ExecResult executeReference(MemorySystem &mem, CoreId core,
                                       ExecContext ctx,
                                       InstCount instructions,
                                       const SegmentProfile &profile,
                                       Rng &rng);

    /**
     * Route execute() through the scalar reference loop on this thread
     * (differential tests drive whole systems down both paths without
     * plumbing a flag through every layer). Thread-local so parallel
     * sweep workers are unaffected.
     */
    static void setReferenceMode(bool on);

    /** Current thread's reference-mode flag. */
    static bool referenceMode();
};

} // namespace oscar

#endif // OSCAR_CPU_EXEC_ENGINE_HH_
