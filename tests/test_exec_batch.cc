/**
 * @file
 * Randomized differential tests holding the batched execution kernel
 * (ExecEngine::execute) to the scalar reference loop
 * (executeReference, tests/reference_exec.hh).
 *
 * The batched kernel's correctness argument is the draw-order
 * contract: reference *generation* never depends on access outcomes,
 * so bulk-generating a block of references ahead of the probes
 * reorders nothing observable. Each trial builds twin worlds, runs a
 * random schedule of segments — batched on one, scalar reference on
 * the other — and compares ExecResult, RNG stream position, per-line
 * cache state and every statistic after each segment. The schedules
 * draw from two inputs: synthetic profiles over random regions, core
 * counts and contexts; and every workload's real user and service
 * profiles, built the way System builds them.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "cpu/exec_engine.hh"
#include "os/os_service.hh"
#include "reference_exec.hh"
#include "workload/address_space.hh"
#include "workload/profiles.hh"
#include "workload/workload.hh"

namespace oscar
{
namespace
{

/** One of the two identical worlds a differential trial runs. */
struct World
{
    AddressSpace space;
    std::unique_ptr<MemorySystem> mem;
    /** The profiles a schedule picks from, by index. */
    std::vector<const SegmentProfile *> profiles;
    /** One generator stream per simulated thread. */
    std::vector<Rng> rngs;

    // Owners of `profiles`: synthetic profiles, or real workloads.
    std::vector<SegmentProfile> synthetic;
    ServiceTable services;
    OsPools pools;
    std::vector<std::unique_ptr<Workload>> workloads;
};

/** One segment of a differential schedule. */
struct Segment
{
    CoreId core;
    ExecContext ctx;
    InstCount instructions;
    std::size_t profile;
    /** Index of the thread whose RNG stream the segment draws from. */
    std::size_t thread;
};

/** Every observable the two paths must agree on, per core. */
void
expectSameMemoryState(const World &wa, const World &wb, unsigned cores)
{
    const MemorySystem &a = *wa.mem;
    const MemorySystem &b = *wb.mem;
    ASSERT_EQ(a.directory().trackedLines(), b.directory().trackedLines());
    ASSERT_EQ(wa.space.regionCount(), wb.space.regionCount());
    for (CoreId core = 0; core < cores; ++core) {
        for (auto pick : {&MemorySystem::l1i, &MemorySystem::l1d,
                          &MemorySystem::l2}) {
            const SetAssocCache &ca = (a.*pick)(core);
            const SetAssocCache &cb = (b.*pick)(core);
            EXPECT_EQ(ca.hits(), cb.hits());
            EXPECT_EQ(ca.misses(), cb.misses());
            EXPECT_EQ(ca.evictions(), cb.evictions());
            EXPECT_EQ(ca.residentLines(), cb.residentLines());
        }
        const CoreMemStats &sa = a.stats(core);
        const CoreMemStats &sb = b.stats(core);
        EXPECT_EQ(sa.l1i.hits(), sb.l1i.hits());
        EXPECT_EQ(sa.l1i.total(), sb.l1i.total());
        EXPECT_EQ(sa.l1d.hits(), sb.l1d.hits());
        EXPECT_EQ(sa.l1d.total(), sb.l1d.total());
        EXPECT_EQ(sa.l2User.hits(), sb.l2User.hits());
        EXPECT_EQ(sa.l2User.total(), sb.l2User.total());
        EXPECT_EQ(sa.l2Os.hits(), sb.l2Os.hits());
        EXPECT_EQ(sa.l2Os.total(), sb.l2Os.total());
        EXPECT_EQ(sa.c2cTransfers, sb.c2cTransfers);
        EXPECT_EQ(sa.invalidationsSent, sb.invalidationsSent);
        EXPECT_EQ(sa.invalidationsReceived, sb.invalidationsReceived);
        EXPECT_EQ(sa.upgrades, sb.upgrades);
        EXPECT_EQ(sa.memoryFetches, sb.memoryFetches);
        // Line-by-line MESI comparison over every region: counters
        // can collide, tag state cannot.
        for (std::size_t r = 0; r < wa.space.regionCount(); ++r) {
            const AddressRegion &ra = wa.space.region(r);
            const Addr base_a = ra.base() >> 6;
            const Addr base_b = wb.space.region(r).base() >> 6;
            const Addr lines = (ra.sizeBytes() + 63) >> 6;
            for (Addr i = 0; i < lines; ++i) {
                ASSERT_EQ(a.l2(core).probe(base_a + i),
                          b.l2(core).probe(base_b + i))
                    << "core " << core << " region " << r
                    << " line " << i;
                ASSERT_EQ(a.l1d(core).probe(base_a + i),
                          b.l1d(core).probe(base_b + i));
                ASSERT_EQ(a.l1i(core).probe(base_a + i),
                          b.l1i(core).probe(base_b + i));
            }
        }
    }
}

/**
 * Run `schedule` batched on `batched` and through the scalar oracle
 * on `scalar`, demanding bit-identical observables after every
 * segment.
 */
void
runTwins(World &batched, World &scalar, unsigned cores,
         const std::vector<Segment> &schedule, const std::string &trial)
{
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Segment &seg = schedule[i];
        Rng &rng_b = batched.rngs[seg.thread];
        Rng &rng_s = scalar.rngs[seg.thread];
        const ExecResult rb = ExecEngine::execute(
            *batched.mem, seg.core, seg.ctx, seg.instructions,
            *batched.profiles[seg.profile], rng_b);
        const ExecResult rs = executeReference(
            *scalar.mem, seg.core, seg.ctx, seg.instructions,
            *scalar.profiles[seg.profile], rng_s);

        ASSERT_EQ(rb.cycles, rs.cycles) << trial << " segment " << i;
        ASSERT_EQ(rb.dataAccesses, rs.dataAccesses);
        ASSERT_EQ(rb.fetches, rs.fetches);
        // The RNG streams must sit at the same position: probe with
        // copies so the comparison itself consumes nothing.
        Rng probe_b = rng_b;
        Rng probe_s = rng_s;
        ASSERT_EQ(probe_b.next64(), probe_s.next64())
            << "RNG streams diverged at " << trial << " segment " << i;
        expectSameMemoryState(batched, scalar, cores);
        if (::testing::Test::HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// Input 1: synthetic profiles.

struct RegionSpec
{
    std::string name;
    std::uint64_t sizeBytes;
};

struct ProfileSpec
{
    double instrPerData;
    double instrPerFetch;
    /** (region index, weight, write fraction) per data target. */
    std::vector<std::tuple<std::size_t, double, double>> data;
};

struct TrialSpec
{
    unsigned cores;
    std::uint64_t seed;
    std::vector<RegionSpec> regions;
    std::vector<ProfileSpec> profiles;
};

/** Materialize the same trial specification into a fresh world. */
void
buildWorld(World &world, const TrialSpec &spec)
{
    std::vector<AddressRegion *> regions; // [0] = code, rest = data
    for (const RegionSpec &r : spec.regions) {
        RegionParams params;
        params.name = r.name;
        params.sizeBytes = r.sizeBytes;
        regions.push_back(world.space.allocate(params));
    }
    world.mem = std::make_unique<MemorySystem>(
        spec.cores, HierarchyGeometry{}, MemTimings{});
    world.synthetic.reserve(spec.profiles.size());
    for (const ProfileSpec &p : spec.profiles) {
        world.synthetic.emplace_back(regions[0], p.instrPerData,
                                     p.instrPerFetch);
        for (const auto &[region, weight, wf] : p.data)
            world.synthetic.back().addData(regions[region], weight, wf);
        world.synthetic.back().finalize();
    }
    for (const SegmentProfile &profile : world.synthetic)
        world.profiles.push_back(&profile);
    world.rngs.assign(1, Rng(spec.seed));
}

TEST(ExecBatchDifferential, RandomProfilesMatchScalarReference)
{
    for (unsigned trial = 0; trial < 10; ++trial) {
        std::mt19937_64 meta(7919 * trial + 11);
        auto pick = [&meta](std::uint64_t lo, std::uint64_t hi) {
            return lo + meta() % (hi - lo + 1);
        };
        auto frac = [&meta]() {
            return static_cast<double>(meta() >> 11) * 0x1.0p-53;
        };

        TrialSpec spec;
        spec.cores = static_cast<unsigned>(pick(1, 4));
        spec.seed = meta();
        spec.regions.push_back({"code", pick(8, 64) * 1024});
        const std::size_t data_regions = pick(1, 3);
        for (std::size_t r = 0; r < data_regions; ++r) {
            spec.regions.push_back(
                {"data" + std::to_string(r), pick(4, 256) * 1024});
        }
        const std::size_t profiles = pick(1, 2);
        for (std::size_t p = 0; p < profiles; ++p) {
            ProfileSpec prof;
            prof.instrPerData = 1.5 + frac() * 14.5;
            prof.instrPerFetch = 4.0 + frac() * 60.0;
            // Profiles may target any subset of the data regions —
            // including none, exercising the fetch-only block path.
            for (std::size_t r = 1; r < spec.regions.size(); ++r) {
                if (p == 0 || meta() % 2 == 0) {
                    prof.data.emplace_back(r, 0.25 + frac() * 4.0,
                                           frac() * 0.8);
                }
            }
            spec.profiles.push_back(std::move(prof));
        }

        World batched;
        World scalar;
        buildWorld(batched, spec);
        buildWorld(scalar, spec);

        std::vector<Segment> schedule;
        for (unsigned seg = 0; seg < 6; ++seg) {
            const CoreId core =
                static_cast<CoreId>(pick(0, spec.cores - 1));
            const ExecContext ctx =
                meta() % 2 == 0 ? ExecContext::User : ExecContext::Os;
            // Spans straddling multiples of the 4096-reference batch
            // exercise the partial-final-block path.
            const InstCount instructions = pick(1, 30'000);
            const std::size_t prof = pick(0, spec.profiles.size() - 1);
            schedule.push_back({core, ctx, instructions, prof, 0});
        }
        runTwins(batched, scalar, spec.cores, schedule,
                 "trial " + std::to_string(trial));
        if (::testing::Test::HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// Input 2: every workload's real segment profiles.

/** Two user threads and one OS core, as in the paper's CMP. */
constexpr unsigned kWorkloadThreads = 2;
constexpr unsigned kWorkloadCores = kWorkloadThreads + 1;

/**
 * Materialize `kind` the way System does: one spec, one set of OS
 * pools, one Workload per user thread over a shared address space.
 * Profile 0 of thread t is its user profile; profile 1 + s is its
 * service s.
 */
void
buildWorkloadWorld(World &world, WorkloadKind kind, std::uint64_t seed)
{
    const WorkloadSpec spec = makeWorkloadSpec(kind);
    const HierarchyGeometry geometry;
    world.pools = OsPools::build(world.space, world.services, spec);
    world.mem = std::make_unique<MemorySystem>(kWorkloadCores, geometry,
                                               MemTimings{});
    Rng root(seed);
    for (unsigned t = 0; t < kWorkloadThreads; ++t) {
        world.workloads.push_back(std::make_unique<Workload>(
            spec, world.services, world.space, world.pools,
            geometry.l2.lineBytes));
        world.rngs.push_back(root.fork());
        const Workload &workload = *world.workloads.back();
        world.profiles.push_back(&workload.userProfile());
        for (std::size_t s = 0; s < kNumServices; ++s) {
            world.profiles.push_back(
                &workload.serviceProfile(static_cast<ServiceId>(s)));
        }
    }
}

TEST(ExecBatchDifferential, WorkloadProfilesMatchScalarReference)
{
    // User bursts run on their thread's core in the user context; OS
    // services run in the OS context on the thread's core or the OS
    // core, so both contexts share and steal lines across cores.
    constexpr std::size_t kPerThread = 1 + kNumServices;
    for (const WorkloadKind kind :
         {WorkloadKind::Apache, WorkloadKind::SpecJbb, WorkloadKind::Derby,
          WorkloadKind::Blackscholes, WorkloadKind::Canneal,
          WorkloadKind::FastaProtein, WorkloadKind::Mummer,
          WorkloadKind::Mcf, WorkloadKind::Hmmer}) {
        std::mt19937_64 meta(static_cast<std::uint64_t>(kind) * 104729 +
                             5);
        auto pick = [&meta](std::uint64_t lo, std::uint64_t hi) {
            return lo + meta() % (hi - lo + 1);
        };
        const std::uint64_t seed = meta();

        World batched;
        World scalar;
        buildWorkloadWorld(batched, kind, seed);
        buildWorkloadWorld(scalar, kind, seed);
        ASSERT_EQ(batched.profiles.size(), kWorkloadThreads * kPerThread);

        std::vector<Segment> schedule;
        for (unsigned seg = 0; seg < 8; ++seg) {
            const std::size_t thread = pick(0, kWorkloadThreads - 1);
            const bool user = meta() % 2 == 0;
            Segment s;
            s.thread = thread;
            s.profile = thread * kPerThread +
                        (user ? 0 : 1 + pick(0, kNumServices - 1));
            s.ctx = user ? ExecContext::User : ExecContext::Os;
            s.core = static_cast<CoreId>(
                user || meta() % 2 == 0 ? thread : kWorkloadThreads);
            s.instructions = pick(1, 30'000);
            schedule.push_back(s);
        }
        runTwins(batched, scalar, kWorkloadCores, schedule,
                 workloadName(kind));
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace
} // namespace oscar
