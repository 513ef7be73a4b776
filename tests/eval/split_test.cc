#include "eval/split.h"

#include <gtest/gtest.h>

namespace aer {
namespace {

RecoveryProcess MakeProcess(SimTime start, MachineId machine = 0) {
  std::vector<SymptomEvent> symptoms = {{start, 0}};
  std::vector<ActionAttempt> attempts = {
      {RepairAction::kReboot, start + 10, 100, true}};
  return RecoveryProcess(machine, std::move(symptoms), std::move(attempts),
                         start + 110);
}

std::vector<RecoveryProcess> TenProcesses() {
  std::vector<RecoveryProcess> out;
  for (int i = 0; i < 10; ++i) out.push_back(MakeProcess(i * 100));
  return out;
}

TEST(SplitByTimeTest, FractionsMatchPaperTests) {
  const auto processes = TenProcesses();
  for (const auto& [fraction, train_size] :
       std::vector<std::pair<double, std::size_t>>{
           {0.2, 2}, {0.4, 4}, {0.6, 6}, {0.8, 8}}) {
    const TrainTestSplit split = SplitByTime(processes, fraction);
    EXPECT_EQ(split.train.size(), train_size) << fraction;
    EXPECT_EQ(split.test.size(), 10 - train_size) << fraction;
  }
}

TEST(SplitByTimeTest, TrainPrecedesTestInTime) {
  const auto processes = TenProcesses();
  const TrainTestSplit split = SplitByTime(processes, 0.4);
  ASSERT_FALSE(split.train.empty());
  ASSERT_FALSE(split.test.empty());
  EXPECT_LE(split.train.back().start_time(),
            split.test.front().start_time());
}

TEST(SplitByTimeTest, ContentsArePreservedInOrder) {
  const auto processes = TenProcesses();
  const TrainTestSplit split = SplitByTime(processes, 0.3);
  // Both halves view the input: no process is copied.
  EXPECT_EQ(split.train.data(), processes.data());
  EXPECT_EQ(split.test.data(), processes.data() + split.train.size());
  EXPECT_EQ(split.train.size() + split.test.size(), processes.size());
}

TEST(SplitByTimeDeathTest, RejectsUnsortedInput) {
  std::vector<RecoveryProcess> processes;
  processes.push_back(MakeProcess(100));
  processes.push_back(MakeProcess(50));
  EXPECT_DEATH(SplitByTime(processes, 0.5), "AER_CHECK");
}

TEST(SplitByTimeDeathTest, RejectsDegenerateFractions) {
  const auto processes = TenProcesses();
  EXPECT_DEATH(SplitByTime(processes, 0.0), "AER_CHECK");
  EXPECT_DEATH(SplitByTime(processes, 1.0), "AER_CHECK");
}

}  // namespace
}  // namespace aer
