// Pooled evaluation must be bit-identical to serial evaluation
// (docs/PARALLELISM.md): bootstrap resamples draw from per-resample derived
// streams and experiment training shards per error type, so handing either
// a ThreadPool changes wall time only — never a single output bit.
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/bootstrap.h"
#include "eval/experiment.h"
#include "fleet/trace.h"
#include "mining/symptom_clusters.h"

namespace aer {
namespace {

TEST(ParallelBootstrapTest, PooledIntervalBitIdenticalToSerial) {
  Rng rng(77);
  std::vector<std::pair<double, double>> pairs;
  pairs.reserve(400);
  for (int i = 0; i < 400; ++i) {
    const double actual = 500.0 + rng.NextDouble() * 5000.0;
    const double policy = actual * (0.5 + rng.NextDouble());
    pairs.emplace_back(policy, actual);
  }
  const BootstrapInterval serial = BootstrapRatioCI(pairs, 500, 0.9, 42);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const BootstrapInterval pooled =
        BootstrapRatioCI(pairs, 500, 0.9, 42, &pool);
    EXPECT_EQ(pooled.point, serial.point) << threads << " threads";
    EXPECT_EQ(pooled.low, serial.low) << threads << " threads";
    EXPECT_EQ(pooled.high, serial.high) << threads << " threads";
    EXPECT_EQ(pooled.resamples, serial.resamples);
    EXPECT_EQ(pooled.confidence, serial.confidence);
  }
}

TEST(ParallelBootstrapTest, ResampleStreamsIndependentOfResampleCount) {
  // Resample r draws from DeriveStream(seed, r): adding more resamples must
  // not change what the first ones drew, so the interval endpoints can only
  // move because the percentile set grew — the point estimate is over the
  // full sample and stays fixed.
  Rng rng(88);
  std::vector<std::pair<double, double>> pairs;
  for (int i = 0; i < 200; ++i) {
    const double actual = 1000.0 + rng.NextDouble() * 2000.0;
    pairs.emplace_back(actual * 0.8, actual);
  }
  const BootstrapInterval small = BootstrapRatioCI(pairs, 200, 0.9, 7);
  const BootstrapInterval large = BootstrapRatioCI(pairs, 800, 0.9, 7);
  EXPECT_EQ(small.point, large.point);
}

// Shared small dataset, as in experiment_test.cc: the runner is the
// expensive part, so build the log once for both equivalence cases.
class ParallelExperimentTest : public ::testing::Test {
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

  static ExperimentConfig FastConfig(bool use_selection_tree) {
    ExperimentConfig config;
    config.trainer.max_sweeps = 6000;
    config.trainer.min_sweeps = 1000;
    config.use_selection_tree = use_selection_tree;
    return config;
  }

  static void ExpectSameResult(const ExperimentResult& a,
                               const ExperimentResult& b) {
    std::ostringstream bytes_a;
    a.policy.Write(bytes_a);
    std::ostringstream bytes_b;
    b.policy.Write(bytes_b);
    EXPECT_EQ(bytes_a.str(), bytes_b.str());
    EXPECT_EQ(a.trained.overall_relative_cost,
              b.trained.overall_relative_cost);
    EXPECT_EQ(a.trained.overall_coverage, b.trained.overall_coverage);
    EXPECT_EQ(a.hybrid.overall_relative_cost, b.hybrid.overall_relative_cost);
    ASSERT_EQ(a.training.size(), b.training.size());
    for (std::size_t i = 0; i < a.training.size(); ++i) {
      EXPECT_EQ(a.training[i].sweeps, b.training[i].sweeps);
      EXPECT_EQ(a.training[i].episodes, b.training[i].episodes);
      EXPECT_EQ(a.training[i].sequence, b.training[i].sequence);
    }
  }

  static TraceDataset* dataset_;
  static std::vector<RecoveryProcess>* clean_;
};

TraceDataset* ParallelExperimentTest::dataset_ = nullptr;
std::vector<RecoveryProcess>* ParallelExperimentTest::clean_ = nullptr;

TEST_F(ParallelExperimentTest, PooledRunOneMatchesSerialWithTree) {
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig(true));
  const ExperimentResult serial = runner.RunOne(0.4);
  ThreadPool pool(4);
  ExpectSameResult(runner.RunOne(0.4, &pool), serial);
}

TEST_F(ParallelExperimentTest, PooledRunOneMatchesSerialPlainTrainer) {
  const ExperimentRunner runner(*clean_, dataset_->result.log.symptoms(),
                                FastConfig(false));
  const ExperimentResult serial = runner.RunOne(0.4);
  ThreadPool pool(4);
  ExpectSameResult(runner.RunOne(0.4, &pool), serial);
}

}  // namespace
}  // namespace aer
