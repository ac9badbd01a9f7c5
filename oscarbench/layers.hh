/**
 * @file
 * Layer probes of the traced run: each times one layer's entry point
 * (workload, cpu, mem, core, os, sim) from the benchmark's own code on
 * inputs generated from the run's seed, inside a span per call batch.
 */

#ifndef OSCARBENCH_LAYERS_HH_
#define OSCARBENCH_LAYERS_HH_

#include <cstdint>
#include <map>
#include <string>

#include "common.hh"
#include "workloads.hh"

namespace oscarbench
{

/**
 * Run every layer probe and add its metrics (keyed by their
 * BENCHMARK.json names) to `out`. Files the probes write go to
 * `scratch_dir`; the read-back of those files feeds `tally`.
 */
void runLayerProbes(std::uint64_t seed, bool tiny,
                    const std::string &scratch_dir, Tracer &tracer,
                    std::uint64_t parent,
                    std::map<std::string, double> &out, CheckTally &tally);

} // namespace oscarbench

#endif // OSCARBENCH_LAYERS_HH_
