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
  consumed_ = {};
  executed_ = {};
  steps_ = 0;
  cured_ = false;
  total_cost_ = static_cast<double>(process_.detection_delay());
}

ProcessReplay::StepResult ProcessReplay::Step(RepairAction action) {
  AER_CHECK(!cured_) << "Step(" << ActionName(action)
                     << ") after the process was already cured";
  const auto idx = static_cast<std::size_t>(ActionIndex(action));
  ++executed_[idx];
  ++steps_;

  // Cure check first, so the cost estimate can be outcome-conditional.
  const bool cured =
      action == RepairAction::kRma ||
      (steps_ >= required_total_ &&
       capabilities_.CoversCounts(executed_, required_));

  // Price the step: actual logged cost when this occurrence of the action
  // exists in the process, per-type average otherwise.
  double cost;
  if (consumed_[idx] < occurrence_costs_[idx].size()) {
    cost = occurrence_costs_[idx][consumed_[idx]];
    ++consumed_[idx];
  } else {
    cost = estimator_.EstimateCost(type_, action, cured);
  }

  cured_ = cured;
  total_cost_ += cost;
  return {cost, cured};
}

}  // namespace aer
