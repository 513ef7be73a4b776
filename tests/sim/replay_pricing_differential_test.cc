// Differential test of the replay's step pricing. ProcessReplay prices a step
// by walking the logged attempts in place (each action's next unconsumed
// occurrence); ReferenceReplay below is the straightforward model it
// replaced: a vector of occurrence costs per action, consumed in order, and
// the correct-action multiset taken from CorrectActions. Random processes
// with repeated actions, manual repair and actions absent from the log are
// driven by random step sequences that branch through Save()/Restore() and
// start over through Reset(), under the total order and identity-only; every
// step's cost and cure flag and the running total must match exactly.
#include <array>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/hypotheses.h"
#include "sim/replay.h"

namespace aer {
namespace {

class ReferenceReplay {
 public:
  struct State {
    std::array<std::size_t, kNumActions> consumed = {};
    ActionCounts executed = {};
    int steps = 0;
    bool cured = false;
    double total_cost = 0.0;
  };

  ReferenceReplay(const RecoveryProcess& process, ErrorTypeId type,
                  const CostEstimator& estimator,
                  const CapabilityModel& capabilities)
      : process_(process),
        type_(type),
        estimator_(estimator),
        capabilities_(capabilities) {
    for (RepairAction a : CorrectActions(process)) {
      ++required_[static_cast<std::size_t>(ActionIndex(a))];
      ++required_total_;
    }
    for (const ActionAttempt& attempt : process.attempts()) {
      occurrence_costs_[static_cast<std::size_t>(ActionIndex(attempt.action))]
          .push_back(static_cast<double>(attempt.cost));
    }
    Reset();
  }

  void Reset() {
    state_ = State{};
    state_.total_cost = static_cast<double>(process_.detection_delay());
  }

  ProcessReplay::StepResult Step(RepairAction action) {
    const auto idx = static_cast<std::size_t>(ActionIndex(action));
    ++state_.executed[idx];
    ++state_.steps;
    const bool cured =
        action == RepairAction::kRma ||
        (state_.steps >= required_total_ &&
         capabilities_.CoversCounts(state_.executed, required_));
    double cost;
    if (state_.consumed[idx] < occurrence_costs_[idx].size()) {
      cost = occurrence_costs_[idx][state_.consumed[idx]++];
    } else {
      cost = estimator_.EstimateCost(type_, action, cured);
    }
    state_.cured = cured;
    state_.total_cost += cost;
    return {cost, cured};
  }

  const State& state() const { return state_; }
  State Save() const { return state_; }
  void Restore(const State& state) { state_ = state; }

 private:
  const RecoveryProcess& process_;
  ErrorTypeId type_;
  const CostEstimator& estimator_;
  const CapabilityModel& capabilities_;
  ActionCounts required_ = {};
  int required_total_ = 0;
  std::array<std::vector<double>, kNumActions> occurrence_costs_;
  State state_;
};

// 1-8 attempts over a random non-empty subset of the machine actions, so
// repeats are common and some actions never occur; a quarter of the
// processes end in manual repair.
RecoveryProcess RandomProcess(Rng& rng) {
  std::vector<RepairAction> kinds;
  while (kinds.empty()) {
    for (int i = 0; i < kNumActions - 1; ++i) {
      if (rng.NextBool(0.5)) kinds.push_back(ActionFromIndex(i));
    }
  }
  const auto symptom = static_cast<SymptomId>(rng.NextBounded(3));
  const SimTime start = static_cast<SimTime>(rng.NextBounded(1000));
  SimTime t = start + 1 + static_cast<SimTime>(rng.NextBounded(300));
  const std::size_t n = 1 + rng.NextBounded(8);
  std::vector<ActionAttempt> attempts;
  for (std::size_t i = 0; i < n; ++i) {
    const RepairAction a = kinds[rng.NextBounded(kinds.size())];
    const SimTime cost = 1 + static_cast<SimTime>(rng.NextBounded(20000));
    attempts.push_back({a, t, cost, false});
    t += cost;
  }
  if (rng.NextBool(0.25)) {
    const SimTime cost = 1 + static_cast<SimTime>(rng.NextBounded(200000));
    attempts.push_back({RepairAction::kRma, t, cost, false});
    t += cost;
  }
  attempts.back().cured = true;
  return RecoveryProcess(0, {{start, symptom}}, std::move(attempts), t);
}

// Mostly machine actions, manual repair now and then.
RepairAction RandomStep(Rng& rng) {
  return rng.NextBool(0.05)
             ? RepairAction::kRma
             : ActionFromIndex(static_cast<int>(rng.NextBounded(3)));
}

std::vector<RecoveryProcess> RandomProcesses() {
  Rng rng(53);
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 400; ++i) processes.push_back(RandomProcess(rng));
  return processes;
}

class ReplayPricingDifferentialTest : public ::testing::Test {
 protected:
  // Drives one replay pair through `ops` random operations: a step, a save,
  // a restore to an earlier save, or (once cured with nothing saved) a
  // reset. Returns the number of steps taken.
  int Drive(const RecoveryProcess& process, const CapabilityModel& model,
            Rng& rng, int ops) {
    const ErrorTypeId type = catalog_.Classify(process);
    ProcessReplay replay(process, type, estimator_, model);
    ReferenceReplay reference(process, type, estimator_, model);
    std::vector<std::pair<ProcessReplay::State, ReferenceReplay::State>> saved;
    int steps = 0;
    for (int op = 0; op < ops; ++op) {
      SCOPED_TRACE(::testing::Message() << "op " << op);
      if (!saved.empty() && (replay.cured() || rng.NextBool(0.15))) {
        const auto& [state, reference_state] =
            saved[rng.NextBounded(saved.size())];
        replay.Restore(state);
        reference.Restore(reference_state);
      } else if (replay.cured()) {
        replay.Reset();
        reference.Reset();
      } else if (rng.NextBool(0.2)) {
        saved.emplace_back(replay.Save(), reference.Save());
      } else {
        const RepairAction a = RandomStep(rng);
        const ProcessReplay::StepResult got = replay.Step(a);
        const ProcessReplay::StepResult want = reference.Step(a);
        ++steps;
        EXPECT_EQ(got.cost, want.cost) << ActionName(a);
        EXPECT_EQ(got.cured, want.cured) << ActionName(a);
      }
      EXPECT_EQ(replay.cured(), reference.state().cured);
      EXPECT_EQ(replay.steps(), reference.state().steps);
      EXPECT_EQ(replay.total_cost(), reference.state().total_cost);
      if (HasFailure()) break;
    }
    return steps;
  }

  void RunAll(const CapabilityModel& model, std::uint64_t seed) {
    Rng rng(seed);
    int steps = 0;
    for (std::size_t i = 0; i < processes_.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "process " << i);
      steps += Drive(processes_[i], model, rng, 60);
      if (HasFailure()) return;
    }
    EXPECT_GT(steps, 10000);
  }

  const std::vector<RecoveryProcess> processes_ = RandomProcesses();
  // Two of the three symptoms become types; the rarest stays unknown, so
  // its absent actions are priced by the global statistics.
  ErrorTypeCatalog catalog_{processes_, 2};
  CostEstimator estimator_{processes_, catalog_};
};

TEST_F(ReplayPricingDifferentialTest, TotalOrder) {
  RunAll(CapabilityModel::TotalOrder(), 59);
}

TEST_F(ReplayPricingDifferentialTest, IdentityOnly) {
  RunAll(CapabilityModel::IdentityOnly(), 61);
}

// The inputs reach every pricing branch the test means to cover.
TEST_F(ReplayPricingDifferentialTest, InputsCoverRepeatsRmaAndAbsentActions) {
  int repeats = 0;
  int rma = 0;
  int absent = 0;
  int unknown_type = 0;
  for (const RecoveryProcess& p : processes_) {
    ActionCounts counts = {};
    for (const ActionAttempt& attempt : p.attempts()) {
      ++counts[static_cast<std::size_t>(ActionIndex(attempt.action))];
    }
    bool repeated = false;
    bool missing = false;
    for (int c : counts) {
      repeated = repeated || c > 1;
      missing = missing || c == 0;
    }
    repeats += repeated ? 1 : 0;
    absent += missing ? 1 : 0;
    rma += p.final_action() == RepairAction::kRma ? 1 : 0;
    unknown_type += catalog_.Classify(p) == kInvalidErrorType ? 1 : 0;
  }
  EXPECT_GT(repeats, 100);
  EXPECT_GT(rma, 50);
  EXPECT_GT(absent, 300);
  EXPECT_GT(unknown_type, 50);
}

}  // namespace
}  // namespace aer
