#include "sim/replay.h"

#include "common/check.h"

namespace aer {

ProcessReplay::ProcessReplay(const RecoveryProcess& process, ErrorTypeId type,
                             const CostEstimator& estimator,
                             const CapabilityModel& capabilities)
    : process_(process),
      type_(type),
      estimator_(estimator),
      capabilities_(capabilities) {
  // One reverse pass: the final action comes first, and each action's
  // first occurrence is the last one seen.
  const std::vector<ActionAttempt>& attempts = process.attempts();
  AER_CHECK(!attempts.empty());
  const int final_strength = ActionStrength(attempts.back().action);
  first_.fill(attempts.size());
  for (std::size_t i = attempts.size(); i-- > 0;) {
    const RepairAction a = attempts[i].action;
    const auto idx = static_cast<std::size_t>(ActionIndex(a));
    // The correct-action multiset (hypothesis 1): every attempt at least as
    // strong as the final one.
    if (ActionStrength(a) >= final_strength) {
      ++required_[idx];
      ++required_total_;
    }
    first_[idx] = i;
  }
  Reset();
}

void ProcessReplay::Reset() {
  state_ = State{};
  state_.next = first_;
  state_.total_cost = static_cast<double>(process_.detection_delay());
}

ProcessReplay::StepResult ProcessReplay::Step(RepairAction action) {
  AER_CHECK(!state_.cured) << "Step(" << ActionName(action)
                           << ") after the process was already cured";
  const auto idx = static_cast<std::size_t>(ActionIndex(action));
  ++state_.executed[idx];
  ++state_.steps;

  // Cure check first, so the cost estimate can be outcome-conditional.
  const bool cured =
      action == RepairAction::kRma ||
      (state_.steps >= required_total_ &&
       capabilities_.CoversCounts(state_.executed, required_));

  // Price the step: actual logged cost when this occurrence of the action
  // exists in the process, per-type average otherwise.
  const std::vector<ActionAttempt>& attempts = process_.attempts();
  std::size_t& next = state_.next[idx];
  double cost;
  if (next < attempts.size()) {
    cost = static_cast<double>(attempts[next].cost);
    do {
      ++next;
    } while (next < attempts.size() && attempts[next].action != action);
  } else {
    cost = estimator_.EstimateCost(type_, action, cured);
  }

  state_.cured = cured;
  state_.total_cost += cost;
  return {cost, cured};
}

}  // namespace aer
