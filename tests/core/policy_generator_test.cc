#include "core/policy_generator.h"

#include <sstream>

#include <gtest/gtest.h>

#include "fleet/trace.h"

namespace aer {
namespace {

PolicyGeneratorConfig FastConfig() {
  PolicyGeneratorConfig config;
  config.trainer.max_sweeps = 10000;
  config.trainer.min_sweeps = 2000;
  return config;
}

class PolicyGeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config = TraceConfigForScale("small");
    dataset_ = new TraceDataset(GenerateTrace(config));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static TraceDataset* dataset_;
};

TraceDataset* PolicyGeneratorTest::dataset_ = nullptr;

TEST_F(PolicyGeneratorTest, GeneratesNonEmptyPolicyWithReport) {
  const PolicyGenerator generator(FastConfig());
  PolicyGenerationReport report;
  const TrainedPolicy policy = generator.Generate(dataset_->result.log,
                                                  &report);

  EXPECT_GT(policy.num_types(), 20u);
  EXPECT_LE(policy.num_types(), 40u);
  EXPECT_EQ(report.total_processes,
            report.clean_processes + report.noisy_processes);
  EXPECT_GT(report.clean_processes, 0u);
  EXPECT_GT(report.symptom_clusters, 10u);
  EXPECT_GT(report.type_coverage, 0.95);
  EXPECT_EQ(report.training.size(), report.error_types);
  // Noise filtering drops a small fraction (~3% in the paper).
  const double noise_fraction =
      static_cast<double>(report.noisy_processes) /
      static_cast<double>(report.total_processes);
  EXPECT_LT(noise_fraction, 0.08);
}

TEST_F(PolicyGeneratorTest, EverySequenceUsesOnlyRealActions) {
  const PolicyGenerator generator(FastConfig());
  const TrainedPolicy policy = generator.Generate(dataset_->result.log);
  for (const auto& entry : policy.entries()) {
    EXPECT_FALSE(entry.sequence.empty());
    EXPECT_LE(entry.sequence.size(), 20u);
    // Symptom names must exist in the log's table.
    EXPECT_NE(dataset_->result.log.symptoms().Find(entry.symptom_name),
              kInvalidSymptom);
  }
}

TEST_F(PolicyGeneratorTest, DeterministicForConfig) {
  const PolicyGenerator generator(FastConfig());
  const TrainedPolicy a = generator.Generate(dataset_->result.log);
  const TrainedPolicy b = generator.Generate(dataset_->result.log);
  ASSERT_EQ(a.num_types(), b.num_types());
  for (const auto& entry : a.entries()) {
    const auto* other = b.FindType(entry.symptom_name);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->sequence, entry.sequence);
  }
}

TEST_F(PolicyGeneratorTest, GeneratedPolicySurvivesSerialization) {
  const PolicyGenerator generator(FastConfig());
  const TrainedPolicy policy = generator.Generate(dataset_->result.log);
  std::stringstream ss;
  policy.Write(ss);
  TrainedPolicy parsed;
  ASSERT_TRUE(TrainedPolicy::Read(ss, parsed));
  EXPECT_EQ(parsed.num_types(), policy.num_types());
}

TEST_F(PolicyGeneratorTest, PlainTrainerAlsoWorks) {
  PolicyGeneratorConfig config = FastConfig();
  config.use_selection_tree = false;
  const PolicyGenerator generator(config);
  const TrainedPolicy policy = generator.Generate(dataset_->result.log);
  EXPECT_GT(policy.num_types(), 10u);
}

}  // namespace
}  // namespace aer
