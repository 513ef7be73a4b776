#include "log/log_stats.h"

#include <gtest/gtest.h>

#include "mining/error_type.h"

namespace aer {
namespace {

// Builds a process with the given initial symptom, start and downtime.
RecoveryProcess MakeProcess(SymptomId symptom, SimTime start,
                            SimTime downtime, MachineId machine = 0) {
  std::vector<SymptomEvent> symptoms = {{start, symptom}};
  std::vector<ActionAttempt> attempts = {
      {RepairAction::kReboot, start + 10, downtime - 10, true}};
  return RecoveryProcess(machine, std::move(symptoms), std::move(attempts),
                         start + downtime);
}

std::vector<RecoveryProcess> SampleProcesses() {
  std::vector<RecoveryProcess> out;
  // Type 7: three processes, total downtime 600.
  out.push_back(MakeProcess(7, 0, 100));
  out.push_back(MakeProcess(7, 10, 200));
  out.push_back(MakeProcess(7, 20, 300));
  // Type 3: two processes, total downtime 1000.
  out.push_back(MakeProcess(3, 30, 400));
  out.push_back(MakeProcess(3, 40, 600));
  // Type 9: one process.
  out.push_back(MakeProcess(9, 50, 50));
  return out;
}

TEST(RankErrorTypesTest, SortsByCountThenId) {
  const auto ranked = RankErrorTypes(SampleProcesses());
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].type, 7);
  EXPECT_EQ(ranked[0].process_count, 3);
  EXPECT_EQ(ranked[0].total_downtime, 600);
  EXPECT_EQ(ranked[1].type, 3);
  EXPECT_EQ(ranked[1].total_downtime, 1000);
  EXPECT_EQ(ranked[2].type, 9);
}

TEST(RankErrorTypesTest, TieBrokenBySymptomId) {
  std::vector<RecoveryProcess> processes;
  processes.push_back(MakeProcess(5, 0, 10));
  processes.push_back(MakeProcess(2, 5, 10));
  const auto ranked = RankErrorTypes(processes);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].type, 2);
  EXPECT_EQ(ranked[1].type, 5);
}

// Top-k type selection is ErrorTypeCatalog's `max_types` prefix of
// RankErrorTypes; these cases check it on the same sample as above.
TEST(SelectTopTypesTest, CoverageFraction) {
  const auto processes = SampleProcesses();
  const ErrorTypeCatalog catalog(processes, 2);
  ASSERT_EQ(catalog.num_types(), 2u);
  EXPECT_EQ(catalog.symptom_of(0), 7);
  EXPECT_EQ(catalog.symptom_of(1), 3);
  EXPECT_NEAR(catalog.coverage(), 5.0 / 6.0, 1e-12);
}

TEST(SelectTopTypesTest, KLargerThanTypesKeepsAll) {
  const auto processes = SampleProcesses();
  const ErrorTypeCatalog catalog(processes, 100);
  EXPECT_EQ(catalog.num_types(), 3u);
  EXPECT_DOUBLE_EQ(catalog.coverage(), 1.0);
}

TEST(TotalDowntimeTest, Sums) {
  EXPECT_EQ(TotalDowntime(SampleProcesses()), 1650);
  EXPECT_EQ(TotalDowntime({}), 0);
}

}  // namespace
}  // namespace aer
