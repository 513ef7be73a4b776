#include "core/guarded_policy.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "obs/trace_collector.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;

// Always answers `action`; counts calls.
class FixedPolicy final : public RecoveryPolicy {
 public:
  explicit FixedPolicy(RepairAction action) : action_(action) {}
  RepairAction ChooseAction(const RecoveryContext&) override {
    ++decisions;
    return action_;
  }
  std::string_view name() const override { return "fixed"; }
  int decisions = 0;

 private:
  RepairAction action_;
};

class ThrowingPolicy final : public RecoveryPolicy {
 public:
  RepairAction ChooseAction(const RecoveryContext&) override {
    throw std::runtime_error("corrupted policy state");
  }
  std::string_view name() const override { return "throwing"; }
};

class OutOfRangePolicy final : public RecoveryPolicy {
 public:
  RepairAction ChooseAction(const RecoveryContext&) override {
    return static_cast<RepairAction>(17);  // a trashed Q-table would do this
  }
  std::string_view name() const override { return "out-of-range"; }
};

RecoveryContext MakeContext(MachineId machine, SimTime start, SimTime now) {
  RecoveryContext context;
  context.machine = machine;
  context.process_start = start;
  context.now = now;
  return context;
}

// Drives one full primary-visible process to completion with the given
// downtime; uses a distinct machine so attribution always starts fresh.
void CompleteProcess(GuardedPolicy& guard, MachineId machine,
                     SimTime downtime) {
  const RecoveryContext context = MakeContext(machine, 0, downtime);
  const RepairAction action = guard.ChooseAction(context);
  guard.OnActionOutcome(context, action, downtime, /*cured=*/true);
}

TEST(GuardedPolicyTest, HealthyPrimaryPassesThrough) {
  FixedPolicy primary(I);
  FixedPolicy fallback(Y);
  GuardedPolicy guard(primary, fallback);
  EXPECT_EQ(guard.ChooseAction(MakeContext(1, 0, 0)), I);
  EXPECT_EQ(guard.stats().primary_decisions, 1);
  EXPECT_EQ(guard.stats().fallback_decisions, 0);
  EXPECT_EQ(fallback.decisions, 0);
}

TEST(GuardedPolicyTest, ThrowingPrimaryFallsBack) {
  ThrowingPolicy primary;
  FixedPolicy fallback(B);
  GuardedPolicy guard(primary, fallback);
  EXPECT_EQ(guard.ChooseAction(MakeContext(1, 0, 0)), B);
  EXPECT_EQ(guard.stats().faults_absorbed, 1);
  EXPECT_EQ(guard.stats().fallback_decisions, 1);
}

TEST(GuardedPolicyTest, OutOfRangeActionFallsBack) {
  OutOfRangePolicy primary;
  FixedPolicy fallback(B);
  GuardedPolicy guard(primary, fallback);
  EXPECT_EQ(guard.ChooseAction(MakeContext(1, 0, 0)), B);
  EXPECT_EQ(guard.stats().invalid_actions, 1);
  EXPECT_EQ(guard.stats().fallback_decisions, 1);
}

TEST(GuardedPolicyTest, BaselineLearnedFromFirstWindow) {
  FixedPolicy primary(B);
  FixedPolicy fallback(Y);
  GuardedPolicyConfig config;
  config.window = 2;
  GuardedPolicy guard(primary, fallback, config);
  EXPECT_EQ(guard.baseline_mean_downtime(), 0.0);
  CompleteProcess(guard, 1, 100);
  CompleteProcess(guard, 2, 300);
  EXPECT_EQ(guard.baseline_mean_downtime(), 200.0);
  EXPECT_FALSE(guard.using_fallback());
}

TEST(GuardedPolicyTest, BreakerTripsOnRegressionAndServesProbation) {
  FixedPolicy primary(B);
  FixedPolicy fallback(Y);
  GuardedPolicyConfig config;
  config.window = 2;
  config.regression_ratio = 1.5;
  config.baseline_mean_downtime = 100.0;  // pinned baseline
  config.probation = 2;
  GuardedPolicy guard(primary, fallback, config);

  // At baseline: no trip.
  CompleteProcess(guard, 1, 100);
  CompleteProcess(guard, 2, 100);
  EXPECT_FALSE(guard.using_fallback());

  // One regressed completion slides in: mean (100+400)/2 = 250 > 150 ->
  // trip.
  CompleteProcess(guard, 3, 400);
  EXPECT_TRUE(guard.using_fallback());
  EXPECT_EQ(guard.stats().breaker_trips, 1);

  // While open, whole new processes are fallback-driven.
  const int fallback_before = fallback.decisions;
  CompleteProcess(guard, 4, 50);
  EXPECT_GT(fallback.decisions, fallback_before);
  EXPECT_TRUE(guard.using_fallback());  // 1 of 2 probation completions

  // Second probation completion half-opens: the primary is retried.
  CompleteProcess(guard, 5, 50);
  EXPECT_FALSE(guard.using_fallback());
  const int primary_before = primary.decisions;
  CompleteProcess(guard, 6, 100);
  EXPECT_GT(primary.decisions, primary_before);
}

// Fallbacks and breaker transitions land in the trace collector as global
// records, the only trace store the guard reports to.
TEST(GuardedPolicyTest, TransitionsBecomeGlobalTraceRecords) {
  ThrowingPolicy throwing;
  FixedPolicy fallback(Y);
  GuardedPolicy faulty(throwing, fallback);
  obs::TraceCollector traces;
  faulty.SetObservers(&traces, nullptr);
  faulty.ChooseAction(MakeContext(4, 0, 30));

  OutOfRangePolicy out_of_range;
  GuardedPolicyConfig config;
  config.window = 1;
  config.baseline_mean_downtime = 100.0;
  config.probation = 1;
  GuardedPolicy guard(out_of_range, fallback, config);
  guard.SetObservers(&traces, nullptr);
  CompleteProcess(guard, 5, 1000);  // invalid action, then trips
  CompleteProcess(guard, 6, 1100);  // probation served: half-open

  const std::vector<obs::TraceRecord> records = traces.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (const obs::TraceRecord& r : records) {
    EXPECT_EQ(r.trace_id, obs::kNoTrace);
  }
  EXPECT_EQ(records[0].kind, obs::TraceEventKind::kGuardFallback);
  EXPECT_EQ(records[0].machine, 4);
  EXPECT_EQ(records[0].time, 30);
  EXPECT_EQ(records[0].detail, "fault_absorbed");
  EXPECT_EQ(records[1].kind, obs::TraceEventKind::kGuardFallback);
  EXPECT_EQ(records[1].machine, 5);
  EXPECT_EQ(records[1].detail, "invalid_action");
  EXPECT_EQ(records[2].kind, obs::TraceEventKind::kBreakerTrip);
  EXPECT_EQ(records[2].time, 1000);
  EXPECT_EQ(records[3].kind, obs::TraceEventKind::kBreakerHalfOpen);
  EXPECT_EQ(records[3].time, 1100);
}

TEST(GuardedPolicyTest, ProcessKeepsItsPolicyAcrossATrip) {
  FixedPolicy primary(B);
  FixedPolicy fallback(Y);
  GuardedPolicyConfig config;
  config.window = 1;
  config.baseline_mean_downtime = 100.0;
  config.probation = 1;
  GuardedPolicy guard(primary, fallback, config);

  // Machine 1 opens under the primary.
  EXPECT_EQ(guard.ChooseAction(MakeContext(1, 0, 0)), B);
  // Machine 2 completes a regressed process -> breaker trips.
  CompleteProcess(guard, 2, 1000);
  EXPECT_TRUE(guard.using_fallback());
  // Machine 1's still-open process stays with the primary...
  EXPECT_EQ(guard.ChooseAction(MakeContext(1, 0, 50)), B);
  // ...while a fresh process is fallback-driven.
  EXPECT_EQ(guard.ChooseAction(MakeContext(3, 60, 60)), Y);
}

TEST(GuardedPolicyTest, HalfOpenServesExactlyProbationCompletions) {
  FixedPolicy primary(B);
  FixedPolicy fallback(Y);
  GuardedPolicyConfig config;
  config.window = 1;
  config.baseline_mean_downtime = 100.0;
  config.probation = 3;
  GuardedPolicy guard(primary, fallback, config);

  CompleteProcess(guard, 1, 1000);  // trips (window of 1)
  ASSERT_TRUE(guard.using_fallback());
  // probation - 1 completions are not enough to half-open...
  CompleteProcess(guard, 2, 50);
  CompleteProcess(guard, 3, 50);
  EXPECT_TRUE(guard.using_fallback());
  // ...the probation-th exactly is.
  CompleteProcess(guard, 4, 50);
  EXPECT_FALSE(guard.using_fallback());
}

TEST(GuardedPolicyTest, RetripsExactlyWhenFreshWindowFillsAfterHalfOpen) {
  FixedPolicy primary(B);
  FixedPolicy fallback(Y);
  GuardedPolicyConfig config;
  config.window = 2;
  config.regression_ratio = 1.5;
  config.baseline_mean_downtime = 100.0;
  config.probation = 1;
  GuardedPolicy guard(primary, fallback, config);

  CompleteProcess(guard, 1, 400);
  CompleteProcess(guard, 2, 400);
  ASSERT_TRUE(guard.using_fallback());
  ASSERT_EQ(guard.stats().breaker_trips, 1);
  CompleteProcess(guard, 3, 50);  // serves the 1-completion probation
  ASSERT_FALSE(guard.using_fallback());

  // Half-open granted the primary a *fresh* window: a regressed completion
  // inside the window (window - 1 samples) must not re-trip...
  CompleteProcess(guard, 4, 400);
  EXPECT_FALSE(guard.using_fallback());
  EXPECT_EQ(guard.stats().breaker_trips, 1);
  // ...and the completion that fills the window exactly must.
  CompleteProcess(guard, 5, 400);
  EXPECT_TRUE(guard.using_fallback());
  EXPECT_EQ(guard.stats().breaker_trips, 2);
}

TEST(GuardedPolicyTest, MeanExactlyAtRegressionBoundaryDoesNotTrip) {
  FixedPolicy primary(B);
  FixedPolicy fallback(Y);
  GuardedPolicyConfig config;
  config.window = 2;
  config.regression_ratio = 1.5;
  config.baseline_mean_downtime = 100.0;
  GuardedPolicy guard(primary, fallback, config);

  // Mean == ratio * baseline sits on the boundary: strictly-greater is the
  // trip condition, so this must stay closed.
  CompleteProcess(guard, 1, 150);
  CompleteProcess(guard, 2, 150);
  EXPECT_FALSE(guard.using_fallback());
  EXPECT_EQ(guard.stats().breaker_trips, 0);
  // One sample past the boundary slides the mean strictly above: trip.
  CompleteProcess(guard, 3, 200);
  EXPECT_TRUE(guard.using_fallback());
  EXPECT_EQ(guard.stats().breaker_trips, 1);
}

TEST(GuardedPolicyTest, OutcomeFeedbackRoutedToDecidingPolicy) {
  // An OnlinePolicy-style learner must only see outcomes of its own
  // decisions; use counting fallbacks to observe the routing.
  class CountingPolicy final : public RecoveryPolicy {
   public:
    RepairAction ChooseAction(const RecoveryContext&) override { return Y; }
    void OnActionOutcome(const RecoveryContext&, RepairAction, SimTime,
                         bool) override {
      ++outcomes;
    }
    std::string_view name() const override { return "counting"; }
    int outcomes = 0;
  };
  CountingPolicy primary;
  CountingPolicy fallback;
  GuardedPolicyConfig config;
  config.baseline_mean_downtime = 100.0;
  GuardedPolicy guard(primary, fallback, config);

  const RecoveryContext context = MakeContext(1, 0, 10);
  guard.ChooseAction(context);
  guard.OnActionOutcome(context, Y, 10, /*cured=*/true);
  EXPECT_EQ(primary.outcomes, 1);
  EXPECT_EQ(fallback.outcomes, 0);
}

}  // namespace
}  // namespace aer
