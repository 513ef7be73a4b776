#include "sim/cost_model.h"

#include "cluster/fault_catalog.h"
#include "common/check.h"

namespace aer {

void TypeCostModel::AddProcess(const RecoveryProcess& process) {
  ++process_count_;
  detection_delay_.Add(static_cast<double>(process.detection_delay()));
  for (const ActionAttempt& attempt : process.attempts()) {
    ActionCostStats& s =
        stats_[static_cast<std::size_t>(ActionIndex(attempt.action))];
    (attempt.cured ? s.success : s.fail)
        .Add(static_cast<double>(attempt.cost));
  }
}

CostEstimator::CostEstimator(std::span<const RecoveryProcess> processes,
                             const ErrorTypeCatalog& types)
    : models_(types.num_types()) {
  for (const RecoveryProcess& p : processes) {
    const ErrorTypeId t = types.Classify(p);
    if (t != kInvalidErrorType) {
      models_[static_cast<std::size_t>(t)].AddProcess(p);
    }
    global_.AddProcess(p);
  }
  observed_.resize(models_.size());
  for (std::size_t t = 0; t < models_.size(); ++t) {
    for (RepairAction a : kAllActions) {
      if (models_[t].Observed(a)) observed_[t].push_back(a);
    }
  }
  // Priors: the catalog's documented default durations. Only reached when an
  // action appears nowhere in the log at all.
  const ActionDurationDefaults d;
  priors_ = {d.trynop_s, d.reboot_s, d.reimage_s, d.rma_s};
}

const TypeCostModel& CostEstimator::type_model(ErrorTypeId type) const {
  AER_CHECK_GE(type, 0);
  AER_CHECK_LT(static_cast<std::size_t>(type), models_.size());
  return models_[static_cast<std::size_t>(type)];
}

namespace {

// Outcome-specific mean if sampled, else the combined mean, else nullopt.
double StatsMeanOr(const ActionCostStats& s, bool success, double fallback,
                   bool* found) {
  const RunningStat& preferred = success ? s.success : s.fail;
  if (preferred.count() > 0) {
    *found = true;
    return preferred.mean();
  }
  const RunningStat& other = success ? s.fail : s.success;
  if (other.count() > 0) {
    *found = true;
    return other.mean();
  }
  *found = false;
  return fallback;
}

}  // namespace

double CostEstimator::EstimateCost(ErrorTypeId type, RepairAction action,
                                   bool success) const {
  bool found = false;
  if (type >= 0 && static_cast<std::size_t>(type) < models_.size()) {
    const double v = StatsMeanOr(type_model(type).stats(action), success, 0.0,
                                 &found);
    if (found) return v;
  }
  const double v = StatsMeanOr(global_.stats(action), success, 0.0, &found);
  if (found) return v;
  return priors_[static_cast<std::size_t>(ActionIndex(action))];
}

const std::vector<RepairAction>& CostEstimator::ObservedActions(
    ErrorTypeId type) const {
  AER_CHECK_GE(type, 0);
  AER_CHECK_LT(static_cast<std::size_t>(type), observed_.size());
  return observed_[static_cast<std::size_t>(type)];
}

}  // namespace aer
