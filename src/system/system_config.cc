/**
 * @file
 * Configuration validation and the artifacts' config echo.
 */

#include "system/system_config.hh"

#include <cmath>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

namespace oscar
{

void
SystemConfig::validate() const
{
    if (userCores == 0)
        oscar_fatal("at least one user core is required");
    // Bound each count before summing: totalCores() adds in unsigned
    // and wraps for counts near 2^32.
    const unsigned os_cores = offloadEnabled ? topology.osCores : 0u;
    if (userCores > 64 || os_cores > 64 || totalCores() > 64)
        oscar_fatal("at most 64 cores are supported");
    if (offloadEnabled)
        topology.validate(userCores);
    if (migrationOneWayCycles > kMaxMigrationCycles) {
        oscar_fatal("migrationOneWayCycles must be at most %llu, got %llu",
                    static_cast<unsigned long long>(kMaxMigrationCycles),
                    static_cast<unsigned long long>(migrationOneWayCycles));
    }
    if (policy != PolicyKind::Baseline && !offloadEnabled) {
        oscar_fatal("policy %s requires offloadEnabled",
                    policyShortName(policy));
    }
    if (policy == PolicyKind::StaticInstrumentation && !siProfile) {
        oscar_fatal("the SI policy needs an off-line service profile; "
                    "run ExperimentRunner::profileServices first");
    }
    if (measureInstructions == 0)
        oscar_fatal("measureInstructions must be positive");
    if (!std::isfinite(osCouplingScale) || osCouplingScale < 0.0) {
        oscar_fatal("osCouplingScale must be a finite number >= 0, "
                    "got %g", osCouplingScale);
    }
    // Only 0 switches interrupts off: NaN and infinity did so silently.
    if (!std::isfinite(interrupts.meanInterarrivalCycles) ||
        interrupts.meanInterarrivalCycles < 0.0) {
        oscar_fatal("interrupts.meanInterarrivalCycles must be finite and "
                    ">= 0 (0 = off), got %g",
                    interrupts.meanInterarrivalCycles);
    }
    if (serving)
        serving->validate();
    if (geometry.l1i.lineBytes != geometry.l2.lineBytes ||
        geometry.l1d.lineBytes != geometry.l2.lineBytes) {
        oscar_fatal("L1/L2 line sizes must match");
    }
    // The OS pools are laid out in 64-byte lines; a longer line would
    // misalign every region placed after them.
    if (geometry.l2.lineBytes > 64) {
        oscar_fatal("cache line size must be at most 64 bytes, got %u",
                    geometry.l2.lineBytes);
    }
}

void
writeConfigIdentity(JsonWriter &w, const SystemConfig &config)
{
    w.field("workload", workloadName(config.workload));
    w.field("policy", policyShortName(config.policy));
    w.field("predictor", predictorShortName(config.predictor));
    w.field("user_cores", config.userCores);
    w.field("offload_enabled", config.offloadEnabled);
    w.field("dynamic_threshold", config.dynamicThreshold);
    w.field("static_threshold", config.staticThreshold);
    w.field("migration_one_way_cycles", config.migrationOneWayCycles);
    w.field("seed", config.seed);
}

void
writeConfigHorizons(JsonWriter &w, const SystemConfig &config)
{
    w.field("warmup_instructions", config.warmupInstructions);
    w.field("measure_instructions", config.measureInstructions);
}

void
writeConfigTopology(JsonWriter &w, const SystemConfig &config)
{
    if (!config.offloadEnabled || config.topology.isDefault())
        return;
    const TopologyConfig &t = config.topology;
    w.key("topology");
    w.beginObject();
    w.field("os_cores", t.osCores);
    w.field("numa_nodes", t.numaNodes);
    w.field("placement", osPlacementName(t.placement));
    w.field("dispatch", osDispatchPolicyName(t.dispatch));
    w.field("intra_node_hop_cycles", t.intraNodeHopCycles);
    w.field("inter_node_hop_cycles", t.interNodeHopCycles);
    w.field("spill_depth", static_cast<std::uint64_t>(t.spillDepth));
    w.endObject();
}

} // namespace oscar
