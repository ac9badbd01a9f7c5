/**
 * @file
 * Unit tests for the migration models, the interconnect, the NUMA
 * topology distance map, and the per-core bookkeeping record.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "mem/interconnect.hh"
#include "os/migration.hh"
#include "os/numa_topology.hh"

namespace oscar
{
namespace
{

TEST(Migration, PresetsMatchThePaper)
{
    EXPECT_EQ(MigrationModel::conservative().oneWayLatency(), 5000u);
    EXPECT_EQ(MigrationModel::improvedSoftware().oneWayLatency(), 3000u);
    EXPECT_EQ(MigrationModel::aggressive().oneWayLatency(), 100u);
}

TEST(Migration, RoundTripIsTwiceOneWay)
{
    const MigrationModel model(1234);
    EXPECT_EQ(model.roundTripLatency(), 2468u);
}

TEST(Migration, NamesAreStable)
{
    EXPECT_EQ(MigrationModel::conservative().name(), "conservative");
    EXPECT_EQ(MigrationModel::aggressive().name(), "aggressive");
    EXPECT_EQ(MigrationModel(7).name(), "custom");
}

TEST(Migration, ZeroLatencyAllowed)
{
    // Figure 4 sweeps a zero-overhead design point.
    const MigrationModel model(0);
    EXPECT_EQ(model.roundTripLatency(), 0u);
}

TEST(Interconnect, LatencyComposition)
{
    Interconnect fabric(10);
    EXPECT_EQ(fabric.coreToDirectory(), 10u);
    EXPECT_EQ(fabric.directoryToCore(), 10u);
    EXPECT_EQ(fabric.coreToCore(), 20u);
    EXPECT_EQ(fabric.requestResponse(), 20u);
    EXPECT_EQ(fabric.hopLatency(), 10u);
}

TEST(Interconnect, MessageCounting)
{
    Interconnect fabric;
    EXPECT_EQ(fabric.messageCount(), 0u);
    fabric.countMessage();
    fabric.countMessage();
    EXPECT_EQ(fabric.messageCount(), 2u);
}

TEST(TopologyDistance, DefaultDegeneratesToTheFlatModel)
{
    // The paper's machine: every distance is the plain one-way
    // migration latency, whatever the preset.
    for (const MigrationModel &model :
         {MigrationModel::conservative(), MigrationModel::aggressive(),
          MigrationModel(0)}) {
        const Topology topo(2, TopologyConfig{}, model.oneWayLatency());
        for (CoreId from = 0; from < 3; ++from) {
            for (CoreId to = 0; to < 3; ++to) {
                EXPECT_EQ(topo.migrationOneWay(from, to),
                          model.oneWayLatency());
            }
        }
    }
}

TEST(TopologyDistance, SymmetricAndDistanceDependent)
{
    TopologyConfig cfg;
    cfg.osCores = 3;
    cfg.numaNodes = 3;
    cfg.placement = OsPlacement::Spread;
    cfg.intraNodeHopCycles = 20;
    cfg.interNodeHopCycles = 400;
    const Topology topo(3, cfg, 1000);
    // Users 0/1/2 on nodes 0/1/2; OS cores 3/4/5 on nodes 0/1/2.
    // Same node: base + intra hop.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(0)), 1020u);
    // One node apart: base + one inter-node hop.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(1)), 1400u);
    // Two nodes apart: the linear distance scales the hop cost.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(2)), 1800u);
    // Symmetric in its arguments, including OS-to-OS transfers.
    for (CoreId a = 0; a < 6; ++a) {
        for (CoreId b = 0; b < 6; ++b) {
            EXPECT_EQ(topo.migrationOneWay(a, b),
                      topo.migrationOneWay(b, a));
        }
    }
    EXPECT_EQ(topo.hops(topo.osCoreId(0), topo.osCoreId(2)), 2u);
}

TEST(TopologyDistance, ComposesWithTheInterconnectModel)
{
    // A topology whose inter-node hop is the fabric's core-to-core
    // latency charges exactly one coherence round trip per crossing —
    // the two models stay dimensionally consistent.
    Interconnect fabric(10);
    TopologyConfig cfg;
    cfg.osCores = 2;
    cfg.numaNodes = 2;
    cfg.placement = OsPlacement::Spread;
    cfg.interNodeHopCycles = fabric.coreToCore();
    const Topology topo(2, cfg, 100);
    // User 0 (node 0) to OS core 1 (node 1): one crossing.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(1)),
              100u + fabric.coreToCore());
    // Same-node migration pays no fabric crossing at all.
    EXPECT_EQ(topo.migrationOneWay(0, topo.osCoreId(0)), 100u);
}

TEST(Core, RolesAndIds)
{
    Core user(0, CoreRole::User);
    Core os(1, CoreRole::Os);
    EXPECT_EQ(user.id(), 0u);
    EXPECT_EQ(user.role(), CoreRole::User);
    EXPECT_EQ(os.role(), CoreRole::Os);
}

TEST(Core, CycleBreakdownTotals)
{
    Core core(0, CoreRole::User);
    core.cycles().user = 100;
    core.cycles().os = 50;
    core.cycles().decision = 5;
    core.cycles().migration = 20;
    core.cycles().queueWait = 25;
    EXPECT_EQ(core.cycles().total(), 200u);
}

TEST(Core, UtilizationFraction)
{
    Core core(0, CoreRole::Os);
    core.cycles().os = 250;
    EXPECT_DOUBLE_EQ(core.cycles().utilization(1000), 0.25);
    EXPECT_DOUBLE_EQ(core.cycles().utilization(0), 0.0);
}

TEST(Core, RetirementAttribution)
{
    Core core(0, CoreRole::User);
    core.retireUser(100);
    core.retireOs(30);
    EXPECT_EQ(core.userInstructions(), 100u);
    EXPECT_EQ(core.osInstructions(), 30u);
    EXPECT_EQ(core.totalInstructions(), 130u);
}

} // namespace
} // namespace oscar
