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

void ProcessReplay::Reset() {
  state_ = State{};
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
  double cost;
  if (state_.consumed[idx] < occurrence_costs_[idx].size()) {
    cost = occurrence_costs_[idx][state_.consumed[idx]];
    ++state_.consumed[idx];
  } else {
    cost = estimator_.EstimateCost(type_, action, cured);
  }

  state_.cured = cured;
  state_.total_cost += cost;
  return {cost, cured};
}

}  // namespace aer
