// Default-scale calibration regression guard: the bands EXPERIMENTS.md
// reports are pinned here, so a change that silently shifts the reproduced
// figures out of the paper's shape fails the suite rather than the release.
// This is the only test that runs the full default-scale dataset; it is a
// single fixture shared across the assertions to keep suite time sane.
#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "fleet/trace.h"
#include "mining/symptom_clusters.h"
#include "sim/platform.h"

namespace aer {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new TraceDataset(GenerateTrace(TraceConfigForScale("default")));
    auto segmented = SegmentIntoProcesses(dataset_->result.log);
    const std::size_t total = segmented.processes.size();
    MPatternConfig mining;
    const SymptomClustering clustering(segmented.processes, mining);
    clean_ = new std::vector<RecoveryProcess>(
        KeepCohesive(std::move(segmented.processes), clustering));
    clean_fraction_ =
        static_cast<double>(clean_->size()) / static_cast<double>(total);

    ExperimentConfig config;
    config.trainer.max_sweeps = 40000;
    runner_ = new ExperimentRunner(*clean_, dataset_->result.log.symptoms(),
                                   config);
    result_ = new ExperimentResult(runner_->RunOne(0.4));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete runner_;
    delete clean_;
    delete dataset_;
    result_ = nullptr;
    runner_ = nullptr;
    clean_ = nullptr;
    dataset_ = nullptr;
  }

  static TraceDataset* dataset_;
  static double clean_fraction_;
  static std::vector<RecoveryProcess>* clean_;
  static ExperimentRunner* runner_;
  static ExperimentResult* result_;
};

TraceDataset* CalibrationTest::dataset_ = nullptr;
double CalibrationTest::clean_fraction_ = 0.0;
std::vector<RecoveryProcess>* CalibrationTest::clean_ = nullptr;
ExperimentRunner* CalibrationTest::runner_ = nullptr;
ExperimentResult* CalibrationTest::result_ = nullptr;

TEST_F(CalibrationTest, Figure3Band) {
  // Paper: 96.67% cohesive at minp 0.1. Ours must stay in [0.95, 0.99].
  EXPECT_GT(clean_fraction_, 0.95);
  EXPECT_LT(clean_fraction_, 0.99);
}

TEST_F(CalibrationTest, Section41Bands) {
  // Paper: 97 error types, top 40 covering 98.68%.
  const ErrorTypeCatalog full(*clean_, 10000);
  EXPECT_GT(full.num_types(), 80u);
  EXPECT_LT(full.num_types(), 120u);
  const ErrorTypeCatalog top40(*clean_, 40);
  EXPECT_GT(top40.coverage(), 0.975);
}

TEST_F(CalibrationTest, Figure7Band) {
  // Paper: worst deviation < 5%, conservative.
  const ErrorTypeCatalog types(*clean_, 40);
  const SimulationPlatform platform(*clean_, types,
                                    dataset_->result.log.symptoms());
  UserDefinedPolicy user;
  double worst = 0.0;
  for (const TypeEvalRow& row :
       PolicyEvaluator(platform).EvaluateFull(user, *clean_).rows) {
    if (row.processes < 20) continue;
    EXPECT_GE(row.relative_cost, 0.99) << "type " << row.type;
    worst = std::max(worst, std::abs(row.relative_cost - 1.0));
  }
  EXPECT_LT(worst, 0.05);
}

TEST_F(CalibrationTest, HeadlineSavingsBand) {
  // Paper: trained 89.02% / hybrid 89.18% at 40% training ("more than 10%
  // savings"). Ours must save 8-20%.
  EXPECT_LT(result_->trained.overall_relative_cost, 0.92);
  EXPECT_GT(result_->trained.overall_relative_cost, 0.80);
  EXPECT_LT(result_->hybrid.overall_relative_cost, 0.92);
  EXPECT_GT(result_->hybrid.overall_relative_cost, 0.80);
  EXPECT_DOUBLE_EQ(result_->hybrid.overall_coverage, 1.0);
}

TEST_F(CalibrationTest, Figure8Shape) {
  // Most populated types near 1.0, at least three strongly improved.
  int near_one = 0;
  int improved = 0;
  int populated = 0;
  for (const TypeEvalRow& row : result_->trained.rows) {
    if (row.handled < 30) continue;
    ++populated;
    if (row.relative_cost < 0.8) ++improved;
    if (row.relative_cost > 0.92 && row.relative_cost < 1.08) ++near_one;
  }
  EXPECT_GE(populated, 25);
  EXPECT_GE(improved, 3);
  EXPECT_GT(near_one, populated / 2);
}

TEST_F(CalibrationTest, Figure10Band) {
  // Paper: coverage > 90% everywhere.
  EXPECT_GT(result_->trained.overall_coverage, 0.95);
  for (const TypeEvalRow& row : result_->trained.rows) {
    if (row.processes < 30) continue;
    EXPECT_GT(row.coverage, 0.85) << "type " << row.type;
  }
}

}  // namespace
}  // namespace aer
