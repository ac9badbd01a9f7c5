/**
 * @file
 * Command-line simulation driver: configure any experiment the paper's
 * infrastructure supports from flags, run it, and print the full
 * result record. This is the binary a downstream user scripts sweeps
 * with.
 *
 * Usage:
 *   example_simulate [--workload apache|specjbb2005|derby|blackscholes|
 *                      canneal|fasta_protein|mummer|mcf|hmmer]
 *                    [--policy base|si|di|hi]
 *                    [--threshold N | --dynamic]
 *                    [--latency CYCLES] [--cores N]
 *                    [--predictor cam|dm|infinite]
 *                    [--measure INSTR] [--warmup INSTR]
 *                    [--seed S] [--coupling X] [--baseline-compare]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "system/experiment.hh"
#include "system/sweep.hh"

namespace
{

using namespace oscar;

constexpr std::uint64_t kAnyCount = std::numeric_limits<std::uint64_t>::max();

[[noreturn]] void
usageAndExit(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME] [--policy base|si|di|hi]\n"
                 "          [--threshold N | --dynamic] [--latency CY]\n"
                 "          [--cores N] [--predictor cam|dm|infinite]\n"
                 "          [--measure INSTR] [--warmup INSTR]\n"
                 "          [--seed S] [--coupling X] "
                 "[--baseline-compare]\n",
                 argv0);
    std::exit(1);
}

WorkloadKind
parseWorkload(const std::string &name)
{
    for (WorkloadKind kind :
         {WorkloadKind::Apache, WorkloadKind::SpecJbb,
          WorkloadKind::Derby, WorkloadKind::Blackscholes,
          WorkloadKind::Canneal, WorkloadKind::FastaProtein,
          WorkloadKind::Mummer, WorkloadKind::Mcf,
          WorkloadKind::Hmmer}) {
        if (workloadName(kind) == name)
            return kind;
    }
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace oscar;

    SystemConfig config;
    config.workload = WorkloadKind::Apache;
    bool baseline_compare = false;
    std::string policy = "base";

    auto next_value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageAndExit(argv[0]);
        return argv[++i];
    };
    auto next_count = [&](int &i, std::uint64_t max = kAnyCount) {
        const char *flag = argv[i];
        return parseCount(flag, next_value(i).c_str(), max);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            config.workload = parseWorkload(next_value(i));
        } else if (arg == "--policy") {
            policy = next_value(i);
        } else if (arg == "--threshold") {
            config.staticThreshold = next_count(i);
        } else if (arg == "--dynamic") {
            config.dynamicThreshold = true;
        } else if (arg == "--latency") {
            config.migrationOneWayCycles = next_count(i);
        } else if (arg == "--cores") {
            config.userCores = static_cast<unsigned>(
                next_count(i, std::numeric_limits<unsigned>::max()));
        } else if (arg == "--predictor") {
            const std::string kind = next_value(i);
            if (kind == "cam")
                config.predictor = PredictorKind::Cam;
            else if (kind == "dm")
                config.predictor = PredictorKind::DirectMapped;
            else if (kind == "infinite")
                config.predictor = PredictorKind::Infinite;
            else
                usageAndExit(argv[0]);
        } else if (arg == "--measure") {
            config.measureInstructions = next_count(i);
        } else if (arg == "--warmup") {
            config.warmupInstructions = next_count(i);
        } else if (arg == "--seed") {
            config.seed = next_count(i);
        } else if (arg == "--coupling") {
            const std::string value = next_value(i);
            if (!parseNonNegative(value.c_str(), config.osCouplingScale)) {
                oscar_fatal("--coupling expects a finite number >= 0, "
                            "got '%s'", value.c_str());
            }
        } else if (arg == "--baseline-compare") {
            baseline_compare = true;
        } else {
            usageAndExit(argv[0]);
        }
    }

    if (policy == "base") {
        config.policy = PolicyKind::Baseline;
    } else if (policy == "si") {
        config.policy = PolicyKind::StaticInstrumentation;
        config.offloadEnabled = true;
        config.siProfile = ExperimentRunner::profileServices(
            config.workload, config.seed);
    } else if (policy == "di") {
        config.policy = PolicyKind::DynamicInstrumentation;
        config.offloadEnabled = true;
    } else if (policy == "hi") {
        config.policy = PolicyKind::HardwarePredictor;
        config.offloadEnabled = true;
    } else {
        usageAndExit(argv[0]);
    }

    const SimResults r = ExperimentRunner::run(config);

    std::printf("workload            %s\n", r.workload.c_str());
    std::printf("policy              %s%s\n", r.policy.c_str(),
                config.dynamicThreshold ? " (dynamic N)" : "");
    std::printf("user cores          %u\n", config.userCores);
    std::printf("makespan            %s cycles\n",
                formatCount(r.makespan).c_str());
    std::printf("retired             %s instructions\n",
                formatCount(r.retired).c_str());
    std::printf("throughput          %.4f inst/cycle\n", r.throughput);
    std::printf("privileged          %s\n",
                formatPercent(r.privFraction).c_str());
    std::printf("user L2 hit rate    %s\n",
                formatPercent(r.userL2HitRate).c_str());
    if (config.offloadEnabled) {
        std::printf("OS core L2 hits     %s\n",
                    formatPercent(r.osL2HitRate).c_str());
        std::printf("OS core busy        %s\n",
                    formatPercent(r.osCoreUtilization).c_str());
        std::printf("off-loaded          %s of %s invocations (%s)\n",
                    formatCount(r.offloaded).c_str(),
                    formatCount(r.invocations).c_str(),
                    formatPercent(r.offloadFraction).c_str());
        std::printf("migration cycles    %s\n",
                    formatCount(r.migrationCycles).c_str());
        std::printf("mean queue delay    %.0f cycles\n",
                    r.meanQueueDelay);
        std::printf("threshold (final)   %s\n",
                    formatCount(r.finalThreshold).c_str());
    }
    if (r.accuracy.samples() > 0) {
        std::printf("predictor exact     %s (+%s within 5%%)\n",
                    formatPercent(r.accuracy.exactRate()).c_str(),
                    formatPercent(r.accuracy.withinToleranceRate())
                        .c_str());
    }
    if (baseline_compare) {
        const SimResults base = ExperimentRunner::baselineResults(config);
        std::printf("normalized          %.3f vs uni-processor "
                    "baseline\n",
                    r.throughput / base.throughput);
    }
    return 0;
}
