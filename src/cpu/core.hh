/**
 * @file
 * Per-core bookkeeping: role, cycle breakdown, and retired-instruction
 * attribution. Cores in this model are passive records — the System
 * drives execution through the event queue and charges time here.
 * Every count is lifetime (never reset); the System reads a measured
 * region as the difference from a copy taken at its start.
 */

#ifndef OSCAR_CPU_CORE_HH_
#define OSCAR_CPU_CORE_HH_

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace oscar
{

/** Role a core plays in the off-loading CMP. */
enum class CoreRole : std::uint8_t
{
    User, ///< runs application threads (and the OS inline, if not off-loaded)
    Os,   ///< dedicated OS core receiving off-loaded sequences
};

/** Where a core's cycles went. */
struct CycleBreakdown
{
    /** Cycles executing user-mode instructions (incl. their stalls). */
    Cycle user = 0;
    /** Cycles executing privileged instructions (incl. their stalls). */
    Cycle os = 0;
    /** Cycles spent in off-load decision code (instrumentation cost). */
    Cycle decision = 0;
    /** Cycles spent migrating thread state between cores. */
    Cycle migration = 0;
    /** Cycles a thread spent waiting for the OS core to become free. */
    Cycle queueWait = 0;

    /** All accounted busy cycles. */
    Cycle total() const
    {
        return user + os + decision + migration + queueWait;
    }

    /**
     * Fraction of `elapsed` cycles the core was busy; 0 when no time
     * elapsed.
     */
    double
    utilization(Cycle elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(total()) /
               static_cast<double>(elapsed);
    }

    /** Cycles charged since `mark`, an earlier copy of this breakdown. */
    CycleBreakdown
    operator-(const CycleBreakdown &mark) const
    {
        return {user - mark.user, os - mark.os, decision - mark.decision,
                migration - mark.migration, queueWait - mark.queueWait};
    }
};

/**
 * One core of the simulated CMP.
 */
class Core
{
  public:
    Core(CoreId id, CoreRole role)
        : coreId(id), coreRole(role)
    {}

    /** Core id, equal to its index in the MemorySystem. */
    CoreId id() const { return coreId; }

    /** Role. */
    CoreRole role() const { return coreRole; }

    /** Mutable cycle accounting. */
    CycleBreakdown &cycles() { return breakdown; }

    /** Cycle accounting. */
    const CycleBreakdown &cycles() const { return breakdown; }

    /** Charge retired user instructions. */
    void retireUser(InstCount n) { userInstrs += n; }

    /** Charge retired privileged instructions. */
    void retireOs(InstCount n) { osInstrs += n; }

    /** User instructions retired on this core. */
    InstCount userInstructions() const { return userInstrs; }

    /** Privileged instructions retired on this core. */
    InstCount osInstructions() const { return osInstrs; }

    /** All instructions retired on this core. */
    InstCount totalInstructions() const { return userInstrs + osInstrs; }

  private:
    CoreId coreId;
    CoreRole coreRole;
    CycleBreakdown breakdown;
    InstCount userInstrs = 0;
    InstCount osInstrs = 0;
};

} // namespace oscar

#endif // OSCAR_CPU_CORE_HH_
