/**
 * @file
 * The benchmark's three workloads: sweep-point construction, the
 * output checks that feed fail_ratio, the result digest, and the
 * paper-accuracy figures of paper_repro.
 */

#ifndef OSCARBENCH_WORKLOADS_HH_
#define OSCARBENCH_WORKLOADS_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "system/sweep.hh"

namespace oscarbench
{

enum class WorkloadId
{
    /** Figure 4, Figure 5 (+ the 512 KB aside) and Table III. */
    PaperRepro,
    /** The serving_tail_latency and numa_topology grids. */
    ServingNuma,
    /** serving_numa's K=1 cells with trace, metrics and spans on disk. */
    ObservedServing,
};

/** The open-loop fleet of serving_tail_latency and numa_topology. */
std::shared_ptr<const oscar::ServingConfig>
makeServing(double mean_interarrival, oscar::DispatchPolicy dispatch,
            bool tiny);

/** A two-node topology of numa_topology with `os_cores` OS cores. */
oscar::TopologyConfig makeTopology(unsigned os_cores,
                                   oscar::OsPlacement placement,
                                   oscar::OsDispatchPolicy dispatch);

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, WorkloadId &out);

const char *workloadIdName(WorkloadId id);

/** Everything a workload needs before its first sweep call. */
struct Setup
{
    WorkloadId id = WorkloadId::PaperRepro;
    std::vector<oscar::SweepPoint> points;
    /** Host milliseconds of each SI profiling pass. */
    std::vector<double> profileMs;
};

/**
 * Profile the SI services and build the workload's points.
 *
 * @param seed Root seed of every configuration (42 reproduces the
 *        bench binaries' documented output).
 * @param tiny Shrink every horizon (self-test scale).
 * @param artifact_dir Directory observed_serving writes artifacts to.
 */
Setup buildSetup(WorkloadId id, std::uint64_t seed, bool tiny,
                 const std::string &artifact_dir, Tracer *tracer,
                 std::uint64_t parent);

/** Output-check tally: every check is one attempt. */
struct CheckTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failure descriptions. */
    std::vector<std::string> failures;

    void check(bool ok, const std::string &what);
};

/**
 * In-memory checks: every point ok; serving points completed exactly
 * the configured measured requests in every replica; span totals
 * reconstruct the merged request latency.
 */
void checkResults(const std::vector<oscar::SweepPointResult> &results,
                  CheckTally &tally);

/**
 * Read every artifact of observed_serving back through the strict
 * readers and validators, and check that the span files' latency
 * totals add up to each point's merged request latency.
 *
 * @return Bytes of artifacts found on disk.
 */
std::uint64_t
checkArtifacts(const Setup &setup,
               const std::vector<oscar::SweepPointResult> &results,
               CheckTally &tally);

/** FNV-1a over sweepPointResultsJson of every point (wall excluded). */
std::uint64_t resultsDigest(
    const std::vector<oscar::SweepPointResult> &results);

/** paper_repro accuracy against the paper's own numbers. */
struct Accuracy
{
    /** Mean |utilization - paper| over Table III's 12 cells, in pp. */
    double table3ErrPp = 0.0;
    /** Mean |rate - paper| over the exact/within/miss split, in pp. */
    double predictorErrPp = 0.0;
    /** Qualitative claims the run violates (0-5). */
    unsigned claimsFailed = 0;
    std::vector<std::string> violated;
};

Accuracy paperAccuracy(const std::vector<oscar::SweepPointResult> &results);

} // namespace oscarbench

#endif // OSCARBENCH_WORKLOADS_HH_
