#include "mining/symptom_clusters.h"

#include <gtest/gtest.h>

#include "fleet/trace.h"

namespace aer {
namespace {

RecoveryProcess MakeProcess(std::vector<SymptomId> symptoms,
                            MachineId machine = 0, SimTime start = 0) {
  std::vector<SymptomEvent> events;
  SimTime t = start;
  for (SymptomId s : symptoms) events.push_back({t++, s});
  std::vector<ActionAttempt> attempts = {
      {RepairAction::kReboot, t, 100, true}};
  return RecoveryProcess(machine, std::move(events), std::move(attempts),
                         t + 100);
}

std::vector<RecoveryProcess> ClusteredProcesses() {
  std::vector<RecoveryProcess> out;
  for (int i = 0; i < 10; ++i) out.push_back(MakeProcess({0, 1}));
  for (int i = 0; i < 8; ++i) out.push_back(MakeProcess({2, 3, 4}));
  // Noisy: mixes the two clusters.
  out.push_back(MakeProcess({0, 3}));
  return out;
}

TEST(CollapseSymptomSetsTest, CountsEachDistinctSet) {
  auto processes = ClusteredProcesses();
  processes.push_back(MakeProcess({1, 0, 1}));  // repeats collapse to {0,1}
  const std::vector<WeightedTransaction> sets = CollapseSymptomSets(processes);
  EXPECT_EQ(sets, (std::vector<WeightedTransaction>{
                      {{0, 1}, 11}, {{0, 3}, 1}, {{2, 3, 4}, 8}}));
}

TEST(SymptomClusteringTest, FindsTheTwoClusters) {
  const auto processes = ClusteredProcesses();
  MPatternConfig config;
  config.minp = 0.5;
  const SymptomClustering clustering(processes, config);
  // {0,1} and {2,3,4} are the dominant maximal patterns.
  bool found01 = false;
  bool found234 = false;
  for (const ItemSet& c : clustering.clusters()) {
    found01 = found01 || c == ItemSet{0, 1};
    found234 = found234 || c == ItemSet{2, 3, 4};
  }
  EXPECT_TRUE(found01);
  EXPECT_TRUE(found234);
}

TEST(SymptomClusteringTest, CohesionClassification) {
  const auto processes = ClusteredProcesses();
  MPatternConfig config;
  config.minp = 0.5;
  const SymptomClustering clustering(processes, config);
  EXPECT_TRUE(clustering.IsCohesive(processes[0]));      // {0,1}
  EXPECT_TRUE(clustering.IsCohesive(processes[12]));     // {2,3,4}
  EXPECT_FALSE(clustering.IsCohesive(processes.back())); // {0,3}
}

TEST(SymptomClusteringTest, SubsetOfClusterIsCohesive) {
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 10; ++i) processes.push_back(MakeProcess({0, 1, 2}));
  processes.push_back(MakeProcess({0, 2}));  // subset of the cluster
  MPatternConfig config;
  config.minp = 0.5;
  const SymptomClustering clustering(processes, config);
  EXPECT_TRUE(clustering.IsCohesive(processes.back()));
}

TEST(SymptomClusteringTest, CohesiveFraction) {
  const auto processes = ClusteredProcesses();
  MPatternConfig config;
  config.minp = 0.5;
  const SymptomClustering clustering(processes, config);
  EXPECT_NEAR(clustering.CohesiveFraction(CollapseSymptomSets(processes)),
              18.0 / 19.0, 1e-12);
}

TEST(CohesiveFractionSweepTest, NonIncreasingInMinp) {
  // Build processes with probabilistic co-occurrence so cohesion degrades
  // with minp (the Figure 3 shape).
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 30; ++i) processes.push_back(MakeProcess({0, 1}));
  for (int i = 0; i < 10; ++i) processes.push_back(MakeProcess({0}));
  for (int i = 0; i < 20; ++i) processes.push_back(MakeProcess({2, 3}));
  for (int i = 0; i < 4; ++i) processes.push_back(MakeProcess({2}));

  const std::vector<double> minps = {0.1, 0.3, 0.5, 0.7, 0.9, 1.0};
  const std::vector<double> fractions =
      CohesiveFractionSweep(processes, minps);
  ASSERT_EQ(fractions.size(), minps.size());
  for (std::size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_LE(fractions[i], fractions[i - 1] + 1e-12)
        << "cohesion must not increase with minp";
  }
  EXPECT_GT(fractions.front(), 0.9);
}

TEST(CohesiveFractionSweepTest, GeneratedTraceMatchesPaperBand) {
  // Section 3.1 / Figure 3: at minp = 0.1 roughly 97% of the processes form
  // cohesive symptom sets.
  TraceConfig config = TraceConfigForScale("small");
  const TraceDataset dataset = GenerateTrace(config);
  const auto segmented = SegmentIntoProcesses(dataset.result.log);
  MPatternConfig mining;
  mining.minp = 0.1;
  const SymptomClustering clustering(segmented.processes, mining);
  const double fraction =
      clustering.CohesiveFraction(CollapseSymptomSets(segmented.processes));
  EXPECT_GT(fraction, 0.93);
  EXPECT_LT(fraction, 0.995);
}

}  // namespace
}  // namespace aer
