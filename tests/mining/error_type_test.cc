#include "mining/error_type.h"

#include <algorithm>
#include <set>
#include <utility>

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

TEST(FilterNoisyProcessesTest, SplitsCleanAndNoisy) {
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 10; ++i) processes.push_back(MakeProcess({0, 1}));
  for (int i = 0; i < 10; ++i) processes.push_back(MakeProcess({2}));
  processes.push_back(MakeProcess({0, 2}));  // spans clusters

  MPatternConfig config;
  config.minp = 0.5;
  const SymptomClustering clustering(processes, config);
  const NoiseFilterResult result =
      FilterNoisyProcesses(processes, clustering);
  EXPECT_EQ(result.clean.size(), 20u);
  EXPECT_EQ(result.noisy.size(), 1u);
  EXPECT_EQ(result.noisy[0], 20u);
  EXPECT_NEAR(result.clean_fraction, 20.0 / 21.0, 1e-12);
}

TEST(FilterNoisyProcessesTest, KeepCohesiveKeepsTheCleanIndicesInOrder) {
  // Noisy processes interleaved with clean ones; each process carries its
  // input index as its machine id so the order is observable.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 21; ++i) {
    const std::vector<SymptomId> symptoms =
        i % 7 == 3 ? std::vector<SymptomId>{0, 2}
                   : (i % 2 == 0 ? std::vector<SymptomId>{0, 1}
                                 : std::vector<SymptomId>{2});
    processes.push_back(MakeProcess(symptoms, i, 10 * i));
  }
  MPatternConfig config;
  config.minp = 0.5;
  const SymptomClustering clustering(processes, config);
  const NoiseFilterResult filtered =
      FilterNoisyProcesses(processes, clustering);
  ASSERT_FALSE(filtered.noisy.empty());

  const std::vector<RecoveryProcess> kept =
      KeepCohesive(processes, clustering);
  ASSERT_EQ(kept.size(), filtered.clean.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const RecoveryProcess& want = processes[filtered.clean[k]];
    EXPECT_EQ(kept[k].machine(), want.machine()) << "position " << k;
    EXPECT_EQ(kept[k].symptoms(), want.symptoms()) << "position " << k;
    EXPECT_EQ(kept[k].attempts(), want.attempts()) << "position " << k;
  }
  EXPECT_TRUE(KeepCohesive({}, clustering).empty());
}

TEST(ErrorTypeCatalogTest, RanksByFrequency) {
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 3; ++i) processes.push_back(MakeProcess({5}));
  for (int i = 0; i < 7; ++i) processes.push_back(MakeProcess({2}));
  for (int i = 0; i < 5; ++i) processes.push_back(MakeProcess({9}));

  const ErrorTypeCatalog catalog(processes, 40);
  ASSERT_EQ(catalog.num_types(), 3u);
  EXPECT_EQ(catalog.symptom_of(0), 2);
  EXPECT_EQ(catalog.symptom_of(1), 9);
  EXPECT_EQ(catalog.symptom_of(2), 5);
  EXPECT_EQ(catalog.count_of(0), 7);
  EXPECT_DOUBLE_EQ(catalog.coverage(), 1.0);
}

TEST(ErrorTypeCatalogTest, MaxTypesTruncatesAndReportsCoverage) {
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 8; ++i) processes.push_back(MakeProcess({1}));
  for (int i = 0; i < 2; ++i) processes.push_back(MakeProcess({2}));
  const ErrorTypeCatalog catalog(processes, 1);
  ASSERT_EQ(catalog.num_types(), 1u);
  EXPECT_EQ(catalog.symptom_of(0), 1);
  EXPECT_NEAR(catalog.coverage(), 0.8, 1e-12);
  EXPECT_EQ(catalog.ClassifySymptom(2), kInvalidErrorType);
}

TEST(ErrorTypeCatalogTest, EmptyInputHasNoTypesAndNoCoverage) {
  const ErrorTypeCatalog catalog({}, 5);
  EXPECT_EQ(catalog.num_types(), 0u);
  EXPECT_EQ(catalog.coverage(), 0.0);
}

TEST(ErrorTypeCatalogTest, TypeOrderIsThePrefixOfRankErrorTypes) {
  std::vector<RecoveryProcess> processes;
  // Counts 4, 4, 3, 2, 1 over symptoms given out of rank order; the tie
  // between 8 and 6 is broken by symptom id.
  const std::vector<std::pair<SymptomId, int>> counts = {
      {3, 2}, {8, 4}, {1, 1}, {6, 4}, {5, 3}};
  for (const auto& [symptom, count] : counts) {
    for (int i = 0; i < count; ++i) processes.push_back(MakeProcess({symptom}));
  }
  const std::vector<ErrorTypeStat> ranked = RankErrorTypes(processes);
  for (std::size_t max_types = 0; max_types <= ranked.size() + 1;
       ++max_types) {
    const ErrorTypeCatalog catalog(processes, max_types);
    ASSERT_EQ(catalog.num_types(), std::min(max_types, ranked.size()));
    std::int64_t covered = 0;
    for (std::size_t t = 0; t < catalog.num_types(); ++t) {
      const auto id = static_cast<ErrorTypeId>(t);
      EXPECT_EQ(catalog.symptom_of(id), ranked[t].type) << "rank " << t;
      EXPECT_EQ(catalog.count_of(id), ranked[t].process_count);
      EXPECT_EQ(catalog.ClassifySymptom(ranked[t].type), id);
      covered += ranked[t].process_count;
    }
    EXPECT_DOUBLE_EQ(catalog.coverage(),
                     static_cast<double>(covered) /
                         static_cast<double>(processes.size()));
  }
}

TEST(ErrorTypeCatalogTest, ClassifyUsesInitialSymptom) {
  std::vector<RecoveryProcess> processes;
  processes.push_back(MakeProcess({4, 7}));
  const ErrorTypeCatalog catalog(processes, 10);
  EXPECT_EQ(catalog.Classify(MakeProcess({4, 9})), 0);
  EXPECT_EQ(catalog.Classify(MakeProcess({7, 4})), kInvalidErrorType)
      << "secondary symptom as initial is a different type";
}

TEST(ErrorTypeCatalogTest, GeneratedTraceMatchesPaperShape) {
  // Section 4.1: ~100 error types post-filter, the top 40 covering ~98.7%.
  const TraceDataset dataset = GenerateTrace(TraceConfigForScale("small"));
  const auto segmented = SegmentIntoProcesses(dataset.result.log);
  MPatternConfig mining;
  const SymptomClustering clustering(segmented.processes, mining);
  const std::vector<RecoveryProcess> clean =
      KeepCohesive(segmented.processes, clustering);
  EXPECT_GT(static_cast<double>(clean.size()) /
                static_cast<double>(segmented.processes.size()),
            0.93);

  const ErrorTypeCatalog catalog(clean, 40);
  EXPECT_EQ(catalog.num_types(), 40u);
  EXPECT_GT(catalog.coverage(), 0.97);

  // Counts are non-increasing in rank.
  for (std::size_t t = 1; t < catalog.num_types(); ++t) {
    EXPECT_GE(catalog.count_of(static_cast<ErrorTypeId>(t - 1)),
              catalog.count_of(static_cast<ErrorTypeId>(t)));
  }
}

TEST(ErrorTypeCatalogTest, NoisyProcessesAreMostlyGroundTruthNoisy) {
  // The mining-based filter should largely agree with the generator's own
  // noise flags (it can also flag rare types whose patterns lack support).
  TraceConfig config = TraceConfigForScale("small");
  const TraceDataset dataset = GenerateTrace(config);
  const auto segmented = SegmentIntoProcesses(dataset.result.log);
  MPatternConfig mining;
  const SymptomClustering clustering(segmented.processes, mining);
  const NoiseFilterResult filtered =
      FilterNoisyProcesses(segmented.processes, clustering);

  std::int64_t flagged_and_noisy = 0;
  std::int64_t flagged = 0;
  for (std::size_t idx : filtered.noisy) {
    ++flagged;
    if (dataset.result.ground_truth[idx].noisy) ++flagged_and_noisy;
  }
  ASSERT_GT(flagged, 0);
  EXPECT_GT(static_cast<double>(flagged_and_noisy) /
                static_cast<double>(flagged),
            0.5);

  // And the overwhelming majority of truly noisy processes are caught.
  std::int64_t truly_noisy = 0;
  std::int64_t caught = 0;
  std::set<std::size_t> noisy_set(filtered.noisy.begin(),
                                  filtered.noisy.end());
  for (std::size_t i = 0; i < segmented.processes.size(); ++i) {
    if (!dataset.result.ground_truth[i].noisy) continue;
    ++truly_noisy;
    if (noisy_set.contains(i)) ++caught;
  }
  ASSERT_GT(truly_noisy, 0);
  EXPECT_GT(static_cast<double>(caught) / static_cast<double>(truly_noisy),
            0.9);
}

}  // namespace
}  // namespace aer
