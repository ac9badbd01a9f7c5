/**
 * @file
 * Unit tests for the experiment runner and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/logging.hh"
#include "system/experiment.hh"
#include "system/sweep.hh"

namespace oscar
{
namespace
{

TEST(ExperimentConfigs, BaselineIsUniProcessor)
{
    const SystemConfig config =
        ExperimentRunner::baselineConfig(WorkloadKind::Derby, 7);
    EXPECT_EQ(config.userCores, 1u);
    EXPECT_FALSE(config.offloadEnabled);
    EXPECT_EQ(config.policy, PolicyKind::Baseline);
    EXPECT_EQ(config.seed, 7u);
    config.validate();
}

TEST(ExperimentConfigs, HardwareConfigSetsThresholdAndLatency)
{
    const SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 500, 1000);
    EXPECT_TRUE(config.offloadEnabled);
    EXPECT_EQ(config.policy, PolicyKind::HardwarePredictor);
    EXPECT_EQ(config.staticThreshold, 500u);
    EXPECT_EQ(config.migrationOneWayCycles, 1000u);
    EXPECT_FALSE(config.dynamicThreshold);
    config.validate();
}

TEST(ExperimentConfigs, DynamicVariantsEnableController)
{
    EXPECT_TRUE(ExperimentRunner::hardwareDynamicConfig(
                    WorkloadKind::Apache, 100)
                    .dynamicThreshold);
    const SystemConfig di = ExperimentRunner::dynamicInstrConfig(
        WorkloadKind::Apache, 100, 250);
    EXPECT_TRUE(di.dynamicThreshold);
    EXPECT_EQ(di.policy, PolicyKind::DynamicInstrumentation);
    EXPECT_EQ(di.diDecisionCost, 250u);
}

TEST(ExperimentConfigs, SiConfigCarriesProfile)
{
    auto profile = std::make_shared<ServiceProfile>();
    profile->observe(ServiceId::Exec, 52000);
    const SystemConfig config = ExperimentRunner::staticInstrConfig(
        WorkloadKind::Apache, 5000, profile);
    EXPECT_EQ(config.policy, PolicyKind::StaticInstrumentation);
    EXPECT_EQ(config.siProfile.get(), profile.get());
    config.validate();
}

TEST(ExperimentConfigs, CoreCountsThatWrapTheSumAreRejected)
{
    // userCores + osCores wraps in unsigned arithmetic; each count is
    // bounded before the sum, so neither order slips past the 64-core
    // limit. Only validate() runs: no System or Topology is built.
    ScopedFatalThrows fatal_throws;
    SystemConfig many_users = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 500, 1000);
    many_users.userCores = UINT32_MAX;
    many_users.topology.osCores = 1;
    ASSERT_EQ(many_users.totalCores(), 0u);
    EXPECT_THROW(many_users.validate(), FatalError);

    SystemConfig many_os = many_users;
    many_os.userCores = 1;
    many_os.topology.osCores = UINT32_MAX;
    ASSERT_EQ(many_os.totalCores(), 0u);
    EXPECT_THROW(many_os.validate(), FatalError);

    SystemConfig sixty_five = many_os;
    sixty_five.userCores = 64;
    sixty_five.topology.osCores = 1;
    EXPECT_THROW(sixty_five.validate(), FatalError);
    sixty_five.userCores = 63;
    EXPECT_NO_THROW(sixty_five.validate());
}

TEST(ExperimentConfigs, NonFiniteOrNegativeCouplingIsRejected)
{
    // Only validate() runs: no System is built.
    ScopedFatalThrows fatal_throws;
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 500, 1000);
    for (const double bad :
         {std::nan(""), std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), -3.0, -0.5}) {
        SCOPED_TRACE(bad);
        config.osCouplingScale = bad;
        EXPECT_THROW(config.validate(), FatalError);
    }
    for (const double good : {0.0, 1.0, 2.5}) {
        SCOPED_TRACE(good);
        config.osCouplingScale = good;
        EXPECT_NO_THROW(config.validate());
    }
}

TEST(ExperimentRunner, ProfileServicesSeesTheMix)
{
    const auto profile =
        ExperimentRunner::profileServices(WorkloadKind::Apache);
    EXPECT_GT(profile->totalObservations(), 0u);
    // Apache's hottest services must have been observed.
    EXPECT_GT(profile->invocations(ServiceId::Read), 0u);
    EXPECT_GT(profile->invocations(ServiceId::GetTimeOfDay), 0u);
    // Mean lengths reflect the models (read of a few KB ~ 1k+).
    EXPECT_GT(profile->meanLength(ServiceId::Read), 300.0);
}

TEST(ExperimentRunner, BaselineCacheReturnsSameResults)
{
    ExperimentRunner::clearBaselineCache();
    SystemConfig config =
        ExperimentRunner::baselineConfig(WorkloadKind::Derby, 3);
    config.measureInstructions = 200'000;
    config.warmupInstructions = 100'000;
    const SimResults a = ExperimentRunner::baselineResults(config);
    const SimResults b = ExperimentRunner::baselineResults(config);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.retired, b.retired);
}

TEST(ExperimentRunner, NormalizedThroughputOfBaselineIsUnity)
{
    SweepPoint point;
    point.config = ExperimentRunner::baselineConfig(WorkloadKind::Derby, 11);
    point.config.measureInstructions = 200'000;
    const SweepPointResult result = ParallelSweepRunner::runPoint(point, 0);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_NEAR(result.normalized, 1.0, 1e-9);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer-name", "2"});
    const std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    // Column alignment: both value cells start at the same offset.
    const auto line_of = [&](const std::string &needle) {
        const auto pos = out.find(needle);
        const auto start = out.rfind('\n', pos);
        return pos - (start == std::string::npos ? 0 : start + 1);
    };
    EXPECT_EQ(line_of("1"), line_of("2"));
}

TEST(TextTableDeath, WrongArityPanics)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "");
}

TEST(Formatting, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(1.0, 3), "1.000");
}

} // namespace
} // namespace oscar
