// End-to-end offline pipeline: synthetic cluster trace -> mining ->
// training -> evaluation, asserting the paper's headline results hold in
// shape (Section 5).
#include <gtest/gtest.h>

#include "core/policy_generator.h"
#include "eval/experiment.h"
#include "fleet/trace.h"
#include "mining/symptom_clusters.h"

namespace aer {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new TraceDataset(GenerateTrace(TraceConfigForScale("small")));
    auto segmented = SegmentIntoProcesses(dataset_->result.log);
    MPatternConfig mining;
    const SymptomClustering clustering(segmented.processes, mining);
    clean_ = new std::vector<RecoveryProcess>(
        KeepCohesive(std::move(segmented.processes), clustering));
    ExperimentConfig config;
    config.trainer.max_sweeps = 15000;
    config.trainer.min_sweeps = 2500;
    runner_ = new ExperimentRunner(*clean_, dataset_->result.log.symptoms(),
                                   config);
    results_ = new std::vector<ExperimentResult>(runner_->RunAll());
  }
  static void TearDownTestSuite() {
    delete results_;
    delete runner_;
    delete clean_;
    delete dataset_;
    results_ = nullptr;
    runner_ = nullptr;
    clean_ = nullptr;
    dataset_ = nullptr;
  }

  static TraceDataset* dataset_;
  static std::vector<RecoveryProcess>* clean_;
  static ExperimentRunner* runner_;
  static std::vector<ExperimentResult>* results_;
};

TraceDataset* PipelineTest::dataset_ = nullptr;
std::vector<RecoveryProcess>* PipelineTest::clean_ = nullptr;
ExperimentRunner* PipelineTest::runner_ = nullptr;
std::vector<ExperimentResult>* PipelineTest::results_ = nullptr;

TEST_F(PipelineTest, AllFourTestsSaveDowntime) {
  // Figure 9: the trained policy saves downtime in every test split.
  ASSERT_EQ(results_->size(), 4u);
  for (const ExperimentResult& r : *results_) {
    EXPECT_LT(r.trained.overall_relative_cost, 1.0)
        << "train fraction " << r.train_fraction;
    EXPECT_GT(r.trained.overall_relative_cost, 0.5);
  }
}

TEST_F(PipelineTest, HybridMatchesTrainedOnAllTests) {
  // Figure 12 vs Figure 9: hybrid keeps the savings with full coverage.
  for (const ExperimentResult& r : *results_) {
    EXPECT_DOUBLE_EQ(r.hybrid.overall_coverage, 1.0);
    EXPECT_NEAR(r.hybrid.overall_relative_cost,
                r.trained.overall_relative_cost, 0.1);
  }
}

TEST_F(PipelineTest, CoverageAboveNinetyPercent) {
  // Figure 10's band.
  for (const ExperimentResult& r : *results_) {
    EXPECT_GT(r.trained.overall_coverage, 0.9)
        << "train fraction " << r.train_fraction;
  }
}

TEST_F(PipelineTest, PinnedStuckServiceTypeImprovesStrongly) {
  // The most frequent error type (paper's "error type 1") is the stuck
  // service: its trained policy jumps to REBOOT, roughly halving cost.
  for (const ExperimentResult& r : *results_) {
    const TypeEvalRow& row = r.trained.rows[0];
    if (row.handled < 20) continue;
    EXPECT_LT(row.relative_cost, 0.85)
        << "train fraction " << r.train_fraction;
    // And the learned sequence indeed starts stronger than TRYNOP.
    ASSERT_FALSE(r.training[0].sequence.empty());
    EXPECT_NE(r.training[0].sequence.front(), RepairAction::kTryNop);
  }
}

TEST_F(PipelineTest, TrainingTelemetryIsPlausible) {
  for (const ExperimentResult& r : *results_) {
    ASSERT_EQ(r.training.size(), runner_->types().num_types());
    for (const TypeTrainingResult& t : r.training) {
      if (t.training_processes == 0) continue;
      EXPECT_GT(t.sweeps, 0);
      EXPECT_LE(t.sweeps, 15000);
      EXPECT_LE(t.sequence.size(), 20u);
    }
  }
}

TEST_F(PipelineTest, PolicyGeneratorFacadeAgreesWithExperimentPipeline) {
  PolicyGeneratorConfig config;
  config.trainer.max_sweeps = 15000;
  config.trainer.min_sweeps = 2500;
  const PolicyGenerator generator(config);
  PolicyGenerationReport report;
  const TrainedPolicy policy =
      generator.Generate(dataset_->result.log, &report);
  // The facade runs on the full log; it should learn the strong-first rule
  // for the dominant stuck-service type too.
  const auto* entry =
      policy.FindType(dataset_->catalog.faults[0].primary_symptom);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->sequence.empty());
  EXPECT_EQ(entry->sequence.front(), RepairAction::kReboot);
}

}  // namespace
}  // namespace aer
