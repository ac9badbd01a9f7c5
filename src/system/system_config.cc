/**
 * @file
 * Configuration validation.
 */

#include "system/system_config.hh"

#include <cmath>

#include "sim/logging.hh"

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
    if (serving)
        serving->validate();
    if (geometry.l1i.lineBytes != geometry.l2.lineBytes ||
        geometry.l1d.lineBytes != geometry.l2.lineBytes) {
        oscar_fatal("L1/L2 line sizes must match");
    }
}

} // namespace oscar
