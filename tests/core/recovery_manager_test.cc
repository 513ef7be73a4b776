#include "core/recovery_manager.h"

#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "common/profiler.h"
#include "log/recovery_process.h"
#include "rl/policy.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto A = RepairAction::kRma;

TEST(RecoveryManagerTest, FullRecoveryWalkthrough) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);

  EXPECT_FALSE(manager.HasOpenProcess(5));
  manager.OnSymptom(100, 5, "Watchdog");
  EXPECT_TRUE(manager.HasOpenProcess(5));
  manager.OnSymptom(110, 5, "EventLog");

  const auto a1 = manager.OnRecoveryNeeded(130, 5);
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(*a1, Y);
  manager.OnActionResult(200, 5, /*healthy=*/false);

  const auto a2 = manager.OnRecoveryNeeded(210, 5);
  EXPECT_EQ(*a2, B);
  manager.OnActionResult(400, 5, /*healthy=*/true);

  EXPECT_FALSE(manager.HasOpenProcess(5));
  EXPECT_EQ(manager.stats().processes_completed, 1);
  EXPECT_EQ(manager.stats().actions_taken, 2);
  EXPECT_EQ(manager.stats().total_downtime, 300);

  // The manager's log segments back into the same process.
  const SegmentationResult segmented = SegmentIntoProcesses(manager.log());
  ASSERT_EQ(segmented.processes.size(), 1u);
  EXPECT_EQ(segmented.processes[0].downtime(), 300);
  EXPECT_EQ(segmented.processes[0].attempts().size(), 2u);
}

// A manager call is a fraction of a microsecond, so it carries no profiler
// scope: timing it would cost a large share of the call (docs/
// OBSERVABILITY.md "Profiler"). Callers time whole replays instead.
TEST(RecoveryManagerTest, PerEventCallsOpenNoProfileScope) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager manager(policy, config);
  ProfileRegistry::Global().Reset();

  manager.OnSymptom(0, 1, "s");
  EXPECT_EQ(*manager.OnRecoveryNeeded(10, 1), Y);
  EXPECT_EQ(manager.PollTimeouts(110).size(), 1u);  // the Y action times out
  EXPECT_EQ(*manager.OnRecoveryNeeded(120, 1), B);
  manager.OnActionResult(130, 1, /*healthy=*/true);
  EXPECT_EQ(manager.stats().actions_timed_out, 1);
  EXPECT_EQ(manager.stats().processes_completed, 1);

  EXPECT_EQ(ProfileRegistry::Global().TotalCalls(), 0);
}

TEST(RecoveryManagerTest, SymptomDuringRecoveryDoesNotReopen) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(100, 1, "s1");
  manager.OnRecoveryNeeded(120, 1);
  manager.OnSymptom(130, 1, "s2");  // mid-process symptom
  EXPECT_EQ(manager.open_process_count(), 1u);
  manager.OnActionResult(150, 1, true);
  EXPECT_EQ(manager.open_process_count(), 0u);
}

TEST(RecoveryManagerTest, NCapForcesManualRepair) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.max_actions_per_process = 3;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "dead");
  EXPECT_EQ(*manager.OnRecoveryNeeded(10, 1), Y);
  manager.OnActionResult(20, 1, false);
  EXPECT_EQ(*manager.OnRecoveryNeeded(30, 1), B);
  manager.OnActionResult(40, 1, false);
  // Third (= cap) action: manual repair regardless of the policy.
  EXPECT_EQ(*manager.OnRecoveryNeeded(50, 1), A);
  EXPECT_EQ(manager.stats().manual_repairs_forced, 1);
  manager.OnActionResult(100, 1, true);
  EXPECT_EQ(manager.stats().processes_completed, 1);
}

TEST(RecoveryManagerTest, NoOpenProcessReturnsNoAction) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  EXPECT_FALSE(manager.OnRecoveryNeeded(10, 1).has_value());
}

TEST(RecoveryManagerTest, MachineHistoryFeedsRecurringShortcut) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  // First process: full escalation from TRYNOP.
  manager.OnSymptom(0, 1, "s");
  EXPECT_EQ(*manager.OnRecoveryNeeded(10, 1), Y);
  manager.OnActionResult(1000, 1, true);
  // Second process 1 hour later: the policy sees the recent recovery and
  // skips the watch level.
  manager.OnSymptom(1000 + kHour, 1, "s");
  EXPECT_EQ(*manager.OnRecoveryNeeded(1010 + kHour, 1), B);
}

TEST(RecoveryManagerTest, IndependentMachines) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(0, 1, "a");
  manager.OnSymptom(5, 2, "b");
  EXPECT_EQ(manager.open_process_count(), 2u);
  manager.OnRecoveryNeeded(10, 1);
  manager.OnRecoveryNeeded(12, 2);
  manager.OnActionResult(20, 2, true);
  EXPECT_TRUE(manager.HasOpenProcess(1));
  EXPECT_FALSE(manager.HasOpenProcess(2));
}

TEST(RecoveryManagerTest, TrainedPolicyDrivesDecisions) {
  TrainedPolicy trained;
  trained.AddType({"stuck", {B, B}});
  UserDefinedPolicy user;
  HybridPolicy hybrid(trained, user);
  RecoveryManager manager(hybrid);

  manager.OnSymptom(0, 1, "stuck");
  EXPECT_EQ(*manager.OnRecoveryNeeded(10, 1), B);
  manager.OnActionResult(20, 1, false);
  EXPECT_EQ(*manager.OnRecoveryNeeded(30, 1), B);
  manager.OnActionResult(40, 1, false);
  // Trained sequence exhausted -> user policy (TRYNOP still unused).
  EXPECT_EQ(*manager.OnRecoveryNeeded(50, 1), Y);
}

TEST(RecoveryManagerTest, ActionResultWithoutProcessIsIgnoredAndCounted) {
  // A result with no open process is duplicate/stale telemetry (e.g. a
  // retransmitted success after the process already closed); the manager
  // absorbs it instead of aborting.
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnActionResult(10, 1, true);
  EXPECT_FALSE(manager.HasOpenProcess(1));
  EXPECT_EQ(manager.stats().stale_results_ignored, 1);
  EXPECT_EQ(manager.stats().processes_completed, 0);
}

}  // namespace
}  // namespace aer
