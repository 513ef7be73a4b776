#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "fleet/trace.h"
#include "mining/symptom_clusters.h"

namespace aer {
namespace {

// Shared small dataset (built once; the experiment runner is the expensive
// part under test).
class ExperimentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new TraceDataset(GenerateTrace(TraceConfigForScale("small")));
    auto segmented = SegmentIntoProcesses(dataset_->result.log);
    MPatternConfig mining;
    const SymptomClustering clustering(segmented.processes, mining);
    clean_ = new std::vector<RecoveryProcess>(
        KeepCohesive(std::move(segmented.processes), clustering));
  }
  static void TearDownTestSuite() {
    delete clean_;
    delete dataset_;
    clean_ = nullptr;
    dataset_ = nullptr;
  }

  static ExperimentConfig FastConfig() {
    ExperimentConfig config;
    config.trainer.max_sweeps = 12000;
    config.trainer.min_sweeps = 2000;
    config.use_selection_tree = true;
    return config;
  }

  static TraceDataset* dataset_;
  static std::vector<RecoveryProcess>* clean_;
};

TraceDataset* ExperimentTest::dataset_ = nullptr;
std::vector<RecoveryProcess>* ExperimentTest::clean_ = nullptr;

TEST_F(ExperimentTest, TrainedPolicySavesDowntime) {
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig());
  const ExperimentResult result = runner.RunOne(0.4);
  // The paper's headline: >10% savings; allow a generous band for the small
  // test-scale trace.
  EXPECT_LT(result.trained.overall_relative_cost, 0.97);
  EXPECT_GT(result.trained.overall_relative_cost, 0.5);
  EXPECT_GT(result.trained.overall_coverage, 0.85);
}

TEST_F(ExperimentTest, HybridCoversEverythingAndStillSaves) {
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig());
  const ExperimentResult result = runner.RunOne(0.4);
  EXPECT_DOUBLE_EQ(result.hybrid.overall_coverage, 1.0);
  EXPECT_LT(result.hybrid.overall_relative_cost, 0.97);
  // Hybrid covers the unhandled remainder with the user policy, so its
  // relative cost is close to the trained policy's.
  EXPECT_NEAR(result.hybrid.overall_relative_cost,
              result.trained.overall_relative_cost, 0.08);
}

TEST_F(ExperimentTest, CoverageGrowsWithTrainingData) {
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig());
  const ExperimentResult r20 = runner.RunOne(0.2);
  const ExperimentResult r80 = runner.RunOne(0.8);
  EXPECT_GE(r80.trained.overall_coverage,
            r20.trained.overall_coverage - 0.02);
}

TEST_F(ExperimentTest, TypeCatalogSharedAcrossTests) {
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig());
  EXPECT_LE(runner.types().num_types(), 40u);
  const ExperimentResult r20 = runner.RunOne(0.2);
  const ExperimentResult r60 = runner.RunOne(0.6);
  // Rows are indexed by the same shared catalog in every test.
  EXPECT_EQ(r20.trained.rows.size(), runner.types().num_types());
  EXPECT_EQ(r60.trained.rows.size(), runner.types().num_types());
}

TEST_F(ExperimentTest, RunAllCoversConfiguredFractions) {
  ExperimentConfig config = FastConfig();
  config.train_fractions = {0.3, 0.7};
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                config);
  const auto results = runner.RunAll();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].train_fraction, 0.3);
  EXPECT_DOUBLE_EQ(results[1].train_fraction, 0.7);
  EXPECT_GT(results[0].train_processes, 0);
  EXPECT_GT(results[0].test_processes, results[1].test_processes);
}

TEST_F(ExperimentTest, MostTypesNearOriginalSomeImproved) {
  // Figure 8's shape: most error types stay around 1.0, a few drop well
  // below (the stronger-action-first types).
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig());
  const ExperimentResult result = runner.RunOne(0.6);
  int near_one = 0;
  int improved = 0;
  int populated = 0;
  for (const TypeEvalRow& row : result.trained.rows) {
    if (row.handled < 5) continue;
    ++populated;
    if (row.relative_cost < 0.85) ++improved;
    if (row.relative_cost > 0.9 && row.relative_cost < 1.15) ++near_one;
  }
  EXPECT_GT(populated, 10);
  EXPECT_GT(improved, 0) << "at least one strongly-improved type";
  EXPECT_GT(near_one, populated / 2) << "most types track the original";
}

TEST_F(ExperimentTest, DeterministicAcrossRuns) {
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig());
  const ExperimentResult a = runner.RunOne(0.4);
  const ExperimentResult b = runner.RunOne(0.4);
  EXPECT_DOUBLE_EQ(a.trained.overall_relative_cost,
                   b.trained.overall_relative_cost);
  EXPECT_EQ(a.trained.total_handled, b.trained.total_handled);
}

}  // namespace
}  // namespace aer
