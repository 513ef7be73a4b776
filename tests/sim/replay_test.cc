#include "sim/replay.h"

#include <gtest/gtest.h>

#include "fleet/trace.h"
#include "log/recovery_process.h"

namespace aer {
namespace {

RecoveryProcess MakeProcess(std::vector<ActionAttempt> attempts,
                            SimTime detection_delay = 40) {
  std::vector<SymptomEvent> symptoms = {{0, 0}};
  // First attempt starts after the detection delay.
  attempts.front().start = detection_delay;
  const ActionAttempt& last = attempts.back();
  return RecoveryProcess(0, std::move(symptoms), std::move(attempts),
                         last.start + last.cost);
}

struct Fixture {
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog catalog;
  CostEstimator estimator;

  explicit Fixture(std::vector<RecoveryProcess> p)
      : processes(std::move(p)),
        catalog(processes, 40),
        estimator(processes, catalog) {}
};

TEST(ProcessReplayTest, SelfReplayReproducesDowntimeExactly) {
  Fixture fx({MakeProcess({{RepairAction::kTryNop, 40, 111, false},
                           {RepairAction::kReboot, 151, 222, false},
                           {RepairAction::kReboot, 373, 333, true}})});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  EXPECT_FALSE(replay.Step(RepairAction::kTryNop).cured);
  EXPECT_FALSE(replay.Step(RepairAction::kReboot).cured);
  const auto last = replay.Step(RepairAction::kReboot);
  EXPECT_TRUE(last.cured);
  EXPECT_DOUBLE_EQ(last.cost, 333.0);
  EXPECT_DOUBLE_EQ(replay.total_cost(), static_cast<double>(p.downtime()));
}

TEST(ProcessReplayTest, StrongerActionCuresImmediately) {
  Fixture fx({MakeProcess({{RepairAction::kTryNop, 40, 100, false},
                           {RepairAction::kReboot, 140, 200, true}})});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  const auto step = replay.Step(RepairAction::kReimage);
  EXPECT_TRUE(step.cured);
  EXPECT_EQ(replay.steps(), 1);
}

TEST(ProcessReplayTest, WeakerActionsNeverCure) {
  Fixture fx({MakeProcess({{RepairAction::kTryNop, 40, 100, false},
                           {RepairAction::kReimage, 140, 900, true}})});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(replay.Step(RepairAction::kReboot).cured);
  }
}

TEST(ProcessReplayTest, RmaIsAbsorbing) {
  Fixture fx({MakeProcess({{RepairAction::kReimage, 40, 900, true}})});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  EXPECT_TRUE(replay.Step(RepairAction::kRma).cured);
}

TEST(ProcessReplayTest, OccurrenceCostsConsumedInOrder) {
  Fixture fx({MakeProcess({{RepairAction::kReboot, 40, 111, false},
                           {RepairAction::kReboot, 151, 222, true}})});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  EXPECT_DOUBLE_EQ(replay.Step(RepairAction::kReboot).cost, 111.0);
  EXPECT_DOUBLE_EQ(replay.Step(RepairAction::kReboot).cost, 222.0);
}

TEST(ProcessReplayTest, ExhaustedOccurrencesUseAverages) {
  // Two processes of the same type give REBOOT a fail average of 150.
  Fixture fx({MakeProcess({{RepairAction::kReboot, 40, 100, false},
                           {RepairAction::kReimage, 140, 900, true}}),
              MakeProcess({{RepairAction::kReboot, 40, 200, false},
                           {RepairAction::kReimage, 240, 800, true}})});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  EXPECT_DOUBLE_EQ(replay.Step(RepairAction::kReboot).cost, 100.0);  // actual
  // Second REBOOT is not in this process: average failing cost (150).
  EXPECT_DOUBLE_EQ(replay.Step(RepairAction::kReboot).cost, 150.0);
}

TEST(ProcessReplayTest, ResetRestartsCleanly) {
  Fixture fx({MakeProcess({{RepairAction::kReboot, 40, 100, true}})});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  replay.Step(RepairAction::kReboot);
  EXPECT_TRUE(replay.cured());
  replay.Reset();
  EXPECT_FALSE(replay.cured());
  EXPECT_EQ(replay.steps(), 0);
  EXPECT_DOUBLE_EQ(replay.total_cost(),
                   static_cast<double>(p.detection_delay()));
  EXPECT_TRUE(replay.Step(RepairAction::kReboot).cured);
}

TEST(ProcessReplayTest, TotalCostIncludesDetectionDelay) {
  Fixture fx({MakeProcess({{RepairAction::kReboot, 40, 100, true}},
                          /*detection_delay=*/70)});
  const RecoveryProcess& p = fx.processes[0];
  ProcessReplay replay(p, fx.catalog.Classify(p), fx.estimator);
  EXPECT_DOUBLE_EQ(replay.total_cost(), 70.0);
  replay.Step(RepairAction::kReboot);
  EXPECT_DOUBLE_EQ(replay.total_cost(), 170.0);
}

// The key platform property on real generated data: replaying each process's
// own action sequence must reproduce its logged downtime exactly and cure at
// exactly the last step.
TEST(ProcessReplayPropertyTest, SelfReplayIdentityOnGeneratedTrace) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 100;
  config.sim.duration = 40 * kDay;
  const TraceDataset dataset = GenerateTrace(config);
  const auto segmented = SegmentIntoProcesses(dataset.result.log);
  const ErrorTypeCatalog catalog(segmented.processes, 1000);
  const CostEstimator estimator(segmented.processes, catalog);

  ASSERT_GT(segmented.processes.size(), 100u);
  for (const RecoveryProcess& p : segmented.processes) {
    if (p.attempts().empty()) continue;
    ProcessReplay replay(p, catalog.Classify(p), estimator);
    for (std::size_t i = 0; i < p.attempts().size(); ++i) {
      ASSERT_FALSE(replay.cured());
      const auto step = replay.Step(p.attempts()[i].action);
      ASSERT_DOUBLE_EQ(step.cost,
                       static_cast<double>(p.attempts()[i].cost));
      ASSERT_EQ(step.cured, i + 1 == p.attempts().size())
          << "self-replay must cure exactly at the final logged action";
    }
    ASSERT_DOUBLE_EQ(replay.total_cost(), static_cast<double>(p.downtime()));
  }
}

}  // namespace
}  // namespace aer
