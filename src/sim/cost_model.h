// Per-error-type action cost statistics extracted from a recovery log
// (Section 3.3): for each (error type, action) the average cost of attempts
// that cured the machine and of attempts that did not. The estimator falls
// back from type-specific statistics to global ones to fixed priors, so a
// replay can always price an action.
#ifndef AER_SIM_COST_MODEL_H_
#define AER_SIM_COST_MODEL_H_

#include <array>
#include <span>
#include <vector>

#include "common/stats.h"
#include "mining/error_type.h"
#include "log/recovery_process.h"

namespace aer {

// Cost statistics of one action against one error type (or globally).
struct ActionCostStats {
  RunningStat success;  // attempts after which the machine reported healthy
  RunningStat fail;
  std::int64_t observations() const {
    return success.count() + fail.count();
  }
};

// Statistics for all actions of one error type.
class TypeCostModel {
 public:
  void AddProcess(const RecoveryProcess& process);

  const ActionCostStats& stats(RepairAction a) const {
    return stats_[static_cast<std::size_t>(ActionIndex(a))];
  }
  bool Observed(RepairAction a) const { return stats(a).observations() > 0; }
  const RunningStat& detection_delay() const { return detection_delay_; }
  std::int64_t process_count() const { return process_count_; }

 private:
  std::array<ActionCostStats, kNumActions> stats_;
  RunningStat detection_delay_;
  std::int64_t process_count_ = 0;
};

// The full estimator: per-type models plus a global model plus priors.
class CostEstimator {
 public:
  // Builds models from `processes`, classifying each via `types`; processes
  // of unknown type contribute to the global model only.
  CostEstimator(std::span<const RecoveryProcess> processes,
                const ErrorTypeCatalog& types);

  // Expected cost of `action` on error type `type` given the (simulated)
  // outcome. Falls back type -> global -> prior and, within a level, from
  // the outcome-specific average to the combined one.
  double EstimateCost(ErrorTypeId type, RepairAction action,
                      bool success) const;

  // The explorable action set of a type, ascending strength: the actions
  // observed at least once for it. This is the paper's restriction that
  // makes the learned policy only *locally* optimal: actions never tried by
  // the original policy have no cost data and cannot be explored. Built once
  // in the constructor.
  const std::vector<RepairAction>& ObservedActions(ErrorTypeId type) const;

  const TypeCostModel& type_model(ErrorTypeId type) const;
  const TypeCostModel& global_model() const { return global_; }

  std::size_t num_types() const { return models_.size(); }

 private:
  std::vector<TypeCostModel> models_;  // indexed by ErrorTypeId
  std::vector<std::vector<RepairAction>> observed_;  // indexed by ErrorTypeId
  TypeCostModel global_;
  std::array<double, kNumActions> priors_;
};

}  // namespace aer

#endif  // AER_SIM_COST_MODEL_H_
