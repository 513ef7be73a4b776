#include "fleet/trace.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace aer {
namespace {

TEST(TraceTest, GenerateTraceIsDeterministic) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 120;
  config.sim.duration = 30 * kDay;
  const TraceDataset a = GenerateTrace(config);
  const TraceDataset b = GenerateTrace(config);
  ASSERT_EQ(a.result.log.size(), b.result.log.size());
  EXPECT_EQ(a.result.total_downtime, b.result.total_downtime);
  EXPECT_EQ(a.result.processes_completed, b.result.processes_completed);
  for (std::size_t i = 0; i < a.result.log.size(); ++i) {
    ASSERT_EQ(a.result.log.entries()[i], b.result.log.entries()[i]);
  }
}

TEST(TraceTest, ConfigFromEnvRespectsScale) {
  setenv("AER_SCALE", "large", 1);
  EXPECT_EQ(TraceConfigFromEnv().sim.num_machines,
            TraceConfigForScale("large").sim.num_machines);
  setenv("AER_SCALE", "small", 1);
  EXPECT_EQ(TraceConfigFromEnv().sim.num_machines,
            TraceConfigForScale("small").sim.num_machines);
  unsetenv("AER_SCALE");
  EXPECT_EQ(TraceConfigFromEnv().sim.num_machines,
            TraceConfigForScale("default").sim.num_machines);
}

// An unknown scale must not run the default scale under its own label (a
// default-size record stamped "smoke"): both the config and the environment
// read fail, naming the known scales.
TEST(TraceTest, UnknownScaleFailsNamingTheKnownOnes) {
  for (const char* scale : {"small", "default", "large"}) {
    EXPECT_TRUE(IsKnownScale(scale)) << scale;
  }
  EXPECT_FALSE(IsKnownScale("smoke"));
  EXPECT_FALSE(IsKnownScale(""));
  EXPECT_DEATH(TraceConfigForScale("smoke"),
               "unknown scale \"smoke\"; the scales are small, default and "
               "large");
  EXPECT_DEATH(
      {
        setenv("AER_SCALE", "smoke", 1);
        TraceConfigFromEnv();
      },
      "unknown scale \"smoke\"");
  EXPECT_DEATH(
      {
        setenv("AER_SCALE", "", 1);
        ScaleFromEnv();
      },
      "unknown scale \"\"");
  unsetenv("AER_SCALE");
  EXPECT_EQ(ScaleFromEnv(), "default");
  setenv("AER_SCALE", "large", 1);
  EXPECT_EQ(ScaleFromEnv(), "large");
  unsetenv("AER_SCALE");
}

TEST(TraceTest, VolumeScalesWithFleetAndHorizon) {
  TraceConfig small = TraceConfigForScale("small");
  small.sim.num_machines = 100;
  small.sim.duration = 20 * kDay;
  TraceConfig big = small;
  big.sim.num_machines = 400;
  const TraceDataset a = GenerateTrace(small);
  const TraceDataset b = GenerateTrace(big);
  // 4x machines at fixed per-machine MTBF => ~4x processes.
  const double ratio =
      static_cast<double>(b.result.processes_completed) /
      static_cast<double>(a.result.processes_completed);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.5);
}

TEST(TraceTest, EscalationConfigShapesTheLog) {
  // A baseline that never reboots produces logs with no REBOOT entries.
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 100;
  config.sim.duration = 20 * kDay;
  config.escalation.max_tries = {1, 0, 2, 1000};
  const TraceDataset dataset = GenerateTrace(config);
  for (const LogEntry& e : dataset.result.log.entries()) {
    if (e.kind == EntryKind::kAction) {
      EXPECT_NE(e.action, RepairAction::kReboot);
    }
  }
}

}  // namespace
}  // namespace aer
