#include "sim/cost_model.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"

namespace aer {
namespace {

// Process with one symptom and the given (action, cost, cured) attempts.
RecoveryProcess MakeProcess(SymptomId symptom,
                            std::vector<ActionAttempt> attempts) {
  std::vector<SymptomEvent> symptoms = {{0, symptom}};
  SimTime end = attempts.back().start + attempts.back().cost;
  return RecoveryProcess(0, std::move(symptoms), std::move(attempts), end);
}

std::vector<RecoveryProcess> SampleProcesses() {
  std::vector<RecoveryProcess> out;
  // Type symptom 0: two processes.
  out.push_back(MakeProcess(
      0, {{RepairAction::kTryNop, 50, 100, false},
          {RepairAction::kReboot, 150, 300, true}}));
  out.push_back(MakeProcess(
      0, {{RepairAction::kTryNop, 60, 200, false},
          {RepairAction::kReboot, 260, 500, true}}));
  // Type symptom 1: one process using REIMAGE.
  out.push_back(MakeProcess(1, {{RepairAction::kReimage, 30, 900, true}}));
  return out;
}

ErrorTypeCatalog MakeCatalog(const std::vector<RecoveryProcess>& processes) {
  return ErrorTypeCatalog(processes, 40);
}

TEST(TypeCostModelTest, AccumulatesSuccessAndFailSeparately) {
  const auto processes = SampleProcesses();
  TypeCostModel model;
  model.AddProcess(processes[0]);
  model.AddProcess(processes[1]);
  EXPECT_EQ(model.process_count(), 2);
  EXPECT_EQ(model.stats(RepairAction::kTryNop).fail.count(), 2);
  EXPECT_EQ(model.stats(RepairAction::kTryNop).success.count(), 0);
  EXPECT_DOUBLE_EQ(model.stats(RepairAction::kTryNop).fail.mean(), 150.0);
  EXPECT_DOUBLE_EQ(model.stats(RepairAction::kReboot).success.mean(), 400.0);
  EXPECT_TRUE(model.Observed(RepairAction::kTryNop));
  EXPECT_FALSE(model.Observed(RepairAction::kRma));
  EXPECT_DOUBLE_EQ(model.detection_delay().mean(), 55.0);
}

TEST(CostEstimatorTest, TypeSpecificEstimates) {
  const auto processes = SampleProcesses();
  const auto catalog = MakeCatalog(processes);
  const CostEstimator estimator(processes, catalog);

  const ErrorTypeId t0 = catalog.ClassifySymptom(0);
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCost(t0, RepairAction::kReboot, /*success=*/true),
      400.0);
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCost(t0, RepairAction::kTryNop, /*success=*/false),
      150.0);
}

TEST(CostEstimatorTest, OutcomeFallbackWithinType) {
  // TRYNOP never succeeded for type 0; the success estimate falls back to
  // its failure average rather than jumping to the global model.
  const auto processes = SampleProcesses();
  const auto catalog = MakeCatalog(processes);
  const CostEstimator estimator(processes, catalog);
  const ErrorTypeId t0 = catalog.ClassifySymptom(0);
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCost(t0, RepairAction::kTryNop, /*success=*/true),
      150.0);
}

TEST(CostEstimatorTest, GlobalFallbackAcrossTypes) {
  // REIMAGE was never observed for type 0 but was for type 1: the global
  // model supplies the estimate.
  const auto processes = SampleProcesses();
  const auto catalog = MakeCatalog(processes);
  const CostEstimator estimator(processes, catalog);
  const ErrorTypeId t0 = catalog.ClassifySymptom(0);
  const std::vector<RepairAction>& observed = estimator.ObservedActions(t0);
  EXPECT_EQ(std::find(observed.begin(), observed.end(),
                      RepairAction::kReimage),
            observed.end());
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCost(t0, RepairAction::kReimage, /*success=*/true),
      900.0);
}

TEST(CostEstimatorTest, PriorFallbackWhenNeverObservedAnywhere) {
  const auto processes = SampleProcesses();
  const auto catalog = MakeCatalog(processes);
  const CostEstimator estimator(processes, catalog);
  const ErrorTypeId t0 = catalog.ClassifySymptom(0);
  // RMA appears nowhere; the estimate comes from the documented priors.
  const ActionDurationDefaults defaults;
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCost(t0, RepairAction::kRma, /*success=*/true),
      defaults.rma_s);
}

TEST(CostEstimatorTest, ObservedActionsAscendingStrength) {
  const auto processes = SampleProcesses();
  const auto catalog = MakeCatalog(processes);
  const CostEstimator estimator(processes, catalog);
  const ErrorTypeId t0 = catalog.ClassifySymptom(0);
  EXPECT_EQ(estimator.ObservedActions(t0),
            (std::vector<RepairAction>{RepairAction::kTryNop,
                                       RepairAction::kReboot}));
  const ErrorTypeId t1 = catalog.ClassifySymptom(1);
  EXPECT_EQ(estimator.ObservedActions(t1),
            (std::vector<RepairAction>{RepairAction::kReimage}));
}

TEST(CostEstimatorTest, UnknownTypeProcessesFeedGlobalOnly) {
  auto processes = SampleProcesses();
  const ErrorTypeCatalog catalog(
      std::span<const RecoveryProcess>(processes.data(), 2), 40);
  // Catalog only knows symptom 0; the symptom-1 process still contributes to
  // the global model.
  const CostEstimator estimator(processes, catalog);
  EXPECT_EQ(estimator.num_types(), 1u);
  EXPECT_TRUE(estimator.global_model().Observed(RepairAction::kReimage));
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCost(kInvalidErrorType, RepairAction::kReimage, true),
      900.0);
}

}  // namespace
}  // namespace aer
