/**
 * @file
 * Implementation of the segment execution engine.
 */

#include "cpu/exec_engine.hh"

#include "sim/logging.hh"

namespace oscar
{

SegmentProfile::SegmentProfile(AddressRegion *code, double instr_per_data,
                               double instr_per_fetch)
    : codeRegion(code), instrPerDataAccess(instr_per_data),
      instrPerCodeLine(instr_per_fetch),
      burstSpan(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(2.0 * instr_per_data)))
{
    oscar_assert(code != nullptr);
    oscar_assert(instr_per_data >= 1.0);
    oscar_assert(instr_per_fetch >= 1.0);
}

SegmentProfile::SegmentProfile(const SegmentProfile &other,
                               const RegionRemap &remap)
    : codeRegion(remap(other.codeRegion)),
      instrPerDataAccess(other.instrPerDataAccess),
      instrPerCodeLine(other.instrPerCodeLine), data(other.data),
      burstSpan(other.burstSpan)
{
    for (RegionAccess &ra : data)
        ra.region = remap(ra.region);
    if (other.alias != nullptr)
        alias = std::make_unique<AliasTable>(*other.alias);
}

void
SegmentProfile::addData(AddressRegion *region, double weight,
                        double write_fraction)
{
    oscar_assert(region != nullptr);
    oscar_assert(weight >= 0.0);
    oscar_assert(write_fraction >= 0.0 && write_fraction <= 1.0);
    data.push_back(RegionAccess{region, weight, write_fraction,
                                BoolThreshold(write_fraction)});
    alias.reset();
}

void
SegmentProfile::finalize()
{
    if (data.empty())
        return;
    std::vector<double> weights;
    weights.reserve(data.size());
    for (const RegionAccess &ra : data)
        weights.push_back(ra.weight);
    alias = std::make_unique<AliasTable>(weights);
}

namespace
{

/**
 * References per accessBatch block. 4096 packed words are 32 KiB —
 * resident in host L1/L2 while a block is generated and then probed —
 * and large enough that per-block costs (buffer bookkeeping, stat
 * flushes) vanish against the per-reference work.
 */
constexpr std::size_t kBatchRefs = 4096;

/**
 * Per-thread block buffer. generate() is a leaf — neither the probes
 * nor a tee re-enter the engine — so one buffer per thread suffices,
 * and parallel sweep workers never share it.
 */
std::vector<std::uint64_t> &
batchBuffer()
{
    thread_local std::vector<std::uint64_t> buffer;
    return buffer;
}

/**
 * The one reference-generation loop. It draws a segment's references
 * from the RNG into blocks of packed words (see PackedRef) and hands
 * each block, the last one possibly partial, to `consume` in program
 * order. Returns the segment's instruction cycles (one per
 * instruction) and reference counts; the caller adds the stall
 * cycles of its probes.
 */
template <typename Consume>
ExecResult
generate(InstCount instructions, const SegmentProfile &profile, Rng &rng,
         Consume &&consume)
{
    oscar_assert(profile.finalized());
    ExecResult result;
    if (instructions == 0)
        return result;

    const FastBound &burst_bound = profile.burstBound();
    double fetch_accum = 0.0;
    const double fetch_rate = 1.0 / profile.instrPerFetch();
    AddressRegion *const code = profile.code();

    std::vector<std::uint64_t> &refs = batchBuffer();
    refs.resize(kBatchRefs);
    std::uint64_t *const block = refs.data();
    std::uint64_t *const block_end = block + kBatchRefs;
    std::uint64_t *out = block;

    const auto flush = [&] {
        consume(block, static_cast<std::size_t>(out - block));
        out = block;
    };

    // Same loop structure and — critically — the same RNG draw
    // sequence as the scalar reference loop (tests/reference_exec.hh);
    // the only difference is that references are packed into a block
    // instead of probed one at a time. A block may flush mid-burst:
    // probing is side-effect-free with respect to generation, so only
    // the block boundary moves.
    InstCount remaining = instructions;
    while (remaining > 0) {
        InstCount burst = 1 + rng.nextBoundedFast(burst_bound);
        if (burst > remaining)
            burst = remaining;
        result.cycles += burst;
        remaining -= burst;

        fetch_accum += static_cast<double>(burst) * fetch_rate;
        while (fetch_accum >= 1.0) {
            fetch_accum -= 1.0;
            *out++ = PackedRef::make(code->nextAccess(rng),
                                     PackedRef::kInstrFetch);
            ++result.fetches;
            if (out == block_end)
                flush();
        }

        if (remaining == 0 || !profile.hasData())
            continue;

        const RegionAccess &target = profile.sampleData(rng);
        const bool is_write = rng.nextBoolFast(target.writeThresh);
        *out++ = PackedRef::make(target.region->nextAccess(rng),
                                 is_write ? PackedRef::kWrite
                                          : PackedRef::kRead);
        ++result.dataAccesses;
        if (out == block_end)
            flush();
    }
    if (out != block)
        flush();
    return result;
}

} // namespace

ExecResult
ExecEngine::execute(MemorySystem &mem, CoreId core, ExecContext ctx,
                    InstCount instructions, const SegmentProfile &profile,
                    Rng &rng, RefBlockSink *tee)
{
    Cycle stall = 0;
    ExecResult result = generate(
        instructions, profile, rng,
        [&](const std::uint64_t *refs, std::size_t count) {
            stall += mem.accessBatch(core, ctx, refs, count);
            if (tee != nullptr)
                tee->consume(refs, count);
        });
    result.cycles += stall;
    return result;
}

} // namespace oscar
