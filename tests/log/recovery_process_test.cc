#include "log/recovery_process.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fleet/trace.h"

namespace aer {
namespace {

// One machine, one clean process mirroring the paper's Table 1.
RecoveryLog Table1Log() {
  RecoveryLog log;
  const SymptomId watchdog = log.symptoms().Intern("IFM-ISNWatchdog");
  const SymptomId hw = log.symptoms().Intern("Hardware:EventLog");
  log.Append(LogEntry::Symptom(11232, 0, watchdog));   // 3:07:12
  log.Append(LogEntry::Symptom(11458, 0, hw));         // 3:10:58
  log.Append(LogEntry::Action(12206, 0, RepairAction::kTryNop));   // 3:23:26
  log.Append(LogEntry::Symptom(12337, 0, hw));         // 3:25:37
  log.Append(LogEntry::Symptom(12454, 0, hw));         // 3:27:34
  log.Append(LogEntry::Action(13330, 0, RepairAction::kReboot));   // 3:42:10
  log.Append(LogEntry::Success(15187, 0));             // 4:13:07
  return log;
}

TEST(SegmentationTest, Table1Example) {
  const SegmentationResult result = SegmentIntoProcesses(Table1Log());
  ASSERT_EQ(result.processes.size(), 1u);
  EXPECT_EQ(result.incomplete, 0);
  EXPECT_EQ(result.orphan_entries, 0);

  const RecoveryProcess& p = result.processes[0];
  EXPECT_EQ(p.machine(), 0);
  EXPECT_EQ(p.start_time(), 11232);
  EXPECT_EQ(p.success_time(), 15187);
  EXPECT_EQ(p.downtime(), 15187 - 11232);
  EXPECT_EQ(p.symptoms().size(), 4u);
  EXPECT_EQ(p.initial_symptom(), 0);  // IFM-ISNWatchdog interned first
  EXPECT_EQ(p.detection_delay(), 12206 - 11232);

  ASSERT_EQ(p.attempts().size(), 2u);
  EXPECT_EQ(p.attempts()[0].action, RepairAction::kTryNop);
  EXPECT_EQ(p.attempts()[0].cost, 13330 - 12206);
  EXPECT_FALSE(p.attempts()[0].cured);
  EXPECT_EQ(p.attempts()[1].action, RepairAction::kReboot);
  EXPECT_EQ(p.attempts()[1].cost, 15187 - 13330);
  EXPECT_TRUE(p.attempts()[1].cured);
  EXPECT_EQ(p.final_action(), RepairAction::kReboot);
}

TEST(SegmentationTest, DistinctSymptomsSortedUnique) {
  const SegmentationResult result = SegmentIntoProcesses(Table1Log());
  // The buffer's old contents are replaced, not appended to.
  std::vector<SymptomId> distinct = {7, 7, 7};
  result.processes[0].DistinctSymptoms(distinct);
  ASSERT_EQ(distinct.size(), 2u);
  EXPECT_EQ(distinct[0], 0);
  EXPECT_EQ(distinct[1], 1);
}

TEST(SegmentationTest, InterleavedMachinesSeparateCleanly) {
  RecoveryLog log;
  const SymptomId a = log.symptoms().Intern("a");
  const SymptomId b = log.symptoms().Intern("b");
  log.Append(LogEntry::Symptom(10, 1, a));
  log.Append(LogEntry::Symptom(20, 2, b));
  log.Append(LogEntry::Action(30, 1, RepairAction::kReboot));
  log.Append(LogEntry::Action(40, 2, RepairAction::kTryNop));
  log.Append(LogEntry::Success(50, 2));
  log.Append(LogEntry::Success(60, 1));

  const SegmentationResult result = SegmentIntoProcesses(log);
  ASSERT_EQ(result.processes.size(), 2u);
  // Ordered by start time.
  EXPECT_EQ(result.processes[0].machine(), 1);
  EXPECT_EQ(result.processes[1].machine(), 2);
  EXPECT_EQ(result.processes[0].downtime(), 50);
  EXPECT_EQ(result.processes[1].downtime(), 30);
}

TEST(SegmentationTest, ConsecutiveProcessesOnOneMachine) {
  RecoveryLog log;
  const SymptomId s = log.symptoms().Intern("s");
  log.Append(LogEntry::Symptom(10, 1, s));
  log.Append(LogEntry::Action(20, 1, RepairAction::kReboot));
  log.Append(LogEntry::Success(30, 1));
  log.Append(LogEntry::Symptom(100, 1, s));
  log.Append(LogEntry::Action(110, 1, RepairAction::kReimage));
  log.Append(LogEntry::Success(120, 1));

  const SegmentationResult result = SegmentIntoProcesses(log);
  ASSERT_EQ(result.processes.size(), 2u);
  EXPECT_EQ(result.processes[0].final_action(), RepairAction::kReboot);
  EXPECT_EQ(result.processes[1].final_action(), RepairAction::kReimage);
}

TEST(SegmentationTest, OrphanEntriesAreCountedAndDropped) {
  RecoveryLog log;
  const SymptomId s = log.symptoms().Intern("s");
  log.Append(LogEntry::Action(5, 1, RepairAction::kReboot));  // orphan
  log.Append(LogEntry::Success(6, 1));                        // orphan
  log.Append(LogEntry::Symptom(10, 1, s));
  log.Append(LogEntry::Action(20, 1, RepairAction::kTryNop));
  log.Append(LogEntry::Success(30, 1));

  const SegmentationResult result = SegmentIntoProcesses(log);
  EXPECT_EQ(result.processes.size(), 1u);
  EXPECT_EQ(result.orphan_entries, 2);
}

TEST(SegmentationTest, OpenProcessAtLogEndIsIncomplete) {
  RecoveryLog log;
  const SymptomId s = log.symptoms().Intern("s");
  log.Append(LogEntry::Symptom(10, 1, s));
  log.Append(LogEntry::Action(20, 1, RepairAction::kReboot));
  // no Success

  const SegmentationResult result = SegmentIntoProcesses(log);
  EXPECT_EQ(result.processes.size(), 0u);
  EXPECT_EQ(result.incomplete, 1);
}

TEST(SegmentationTest, ProcessWithNoActions) {
  // Success without any repair action (self-healed): still a process.
  RecoveryLog log;
  const SymptomId s = log.symptoms().Intern("s");
  log.Append(LogEntry::Symptom(10, 1, s));
  log.Append(LogEntry::Success(30, 1));

  const SegmentationResult result = SegmentIntoProcesses(log);
  ASSERT_EQ(result.processes.size(), 1u);
  EXPECT_TRUE(result.processes[0].attempts().empty());
  EXPECT_EQ(result.processes[0].downtime(), 20);
  EXPECT_EQ(result.processes[0].detection_delay(), 20);
}

TEST(SegmentationTest, UnsortedInputIsHandled) {
  RecoveryLog log;
  const SymptomId s = log.symptoms().Intern("s");
  // Deliberately append out of order.
  log.Append(LogEntry::Success(30, 1));
  log.Append(LogEntry::Symptom(10, 1, s));
  log.Append(LogEntry::Action(20, 1, RepairAction::kReboot));

  const SegmentationResult result = SegmentIntoProcesses(log);
  ASSERT_EQ(result.processes.size(), 1u);
  EXPECT_EQ(result.processes[0].downtime(), 20);
}

TEST(IndexProcessesTest, SpansAndOwnersFollowTheRule) {
  RecoveryLog log;
  const SymptomId a = log.symptoms().Intern("a");
  const SymptomId b = log.symptoms().Intern("b");
  // Out of (time, machine) order, so the index sorts a copy.
  log.Append(LogEntry::Symptom(10, -3, a));
  log.Append(LogEntry::Action(5, 7, RepairAction::kReboot));  // orphan
  log.Append(LogEntry::Action(20, -3, RepairAction::kReboot));
  log.Append(LogEntry::Symptom(25, 7, b));
  log.Append(LogEntry::Symptom(26, -3, b));
  log.Append(LogEntry::Success(30, -3));
  log.Append(LogEntry::Success(31, -3));  // orphan
  log.Append(LogEntry::Symptom(40, 7, a));

  const ProcessIndex index = IndexProcesses(log);
  // Sorted: 5/m7 A, 10/m-3 S, 20/m-3 A, 25/m7 S, 26/m-3 S, 30/m-3 Succ,
  //         31/m-3 Succ, 40/m7 S.
  ASSERT_EQ(index.entries.size(), log.size());
  EXPECT_FALSE(index.sorted.empty());
  EXPECT_EQ(index.entries.data(), index.sorted.data());
  EXPECT_EQ(index.entries[0].time, 5);
  ASSERT_EQ(index.spans.size(), 2u);
  EXPECT_EQ(index.spans[0].open, 1u);
  EXPECT_EQ(index.spans[0].close, 5u);
  EXPECT_EQ(index.spans[0].symptoms, 2u);
  EXPECT_EQ(index.spans[0].attempts, 1u);
  EXPECT_EQ(index.spans[1].open, 3u);
  EXPECT_FALSE(index.spans[1].closed());
  EXPECT_EQ(index.spans[1].symptoms, 2u);
  EXPECT_EQ(index.spans[1].attempts, 0u);
  constexpr std::uint32_t kOrphan = ProcessIndex::kOrphan;
  EXPECT_EQ(index.owner,
            (std::vector<std::uint32_t>{kOrphan, 0, 0, 1, 0, 0, kOrphan, 1}));
  EXPECT_EQ(index.incomplete, 1);
  EXPECT_EQ(index.orphan_entries, 2);
}

TEST(IndexProcessesTest, SortedLogIsIndexedInPlace) {
  const RecoveryLog log = Table1Log();
  const ProcessIndex index = IndexProcesses(log);
  EXPECT_TRUE(index.sorted.empty());
  EXPECT_EQ(index.entries.data(), log.entries().data());
  ASSERT_EQ(index.spans.size(), 1u);
  EXPECT_EQ(index.spans[0].open, 0u);
  EXPECT_EQ(index.spans[0].close, 6u);
  EXPECT_EQ(index.spans[0].symptoms, 4u);
  EXPECT_EQ(index.spans[0].attempts, 2u);
}

TEST(SegmentationTest, ProcessVectorsAreSizedExactly) {
  const SegmentationResult result = SegmentIntoProcesses(Table1Log());
  ASSERT_EQ(result.processes.size(), 1u);
  EXPECT_EQ(result.processes[0].symptoms().capacity(), 4u);
  EXPECT_EQ(result.processes[0].attempts().capacity(), 2u);
}

// Property test against the full generator: segmentation must reproduce the
// simulator's own accounting exactly.
TEST(SegmentationPropertyTest, MatchesGroundTruthOnGeneratedTrace) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 100;
  config.sim.duration = 30 * kDay;
  const TraceDataset dataset = GenerateTrace(config);

  const SegmentationResult result = SegmentIntoProcesses(dataset.result.log);
  ASSERT_EQ(result.processes.size(), dataset.result.ground_truth.size());
  EXPECT_EQ(result.orphan_entries, 0);
  EXPECT_EQ(result.incomplete, 0);

  SimTime total_downtime = 0;
  for (std::size_t i = 0; i < result.processes.size(); ++i) {
    const RecoveryProcess& p = result.processes[i];
    const ProcessGroundTruth& gt = dataset.result.ground_truth[i];
    ASSERT_EQ(p.machine(), gt.machine) << "process " << i;
    ASSERT_EQ(p.start_time(), gt.start) << "process " << i;
    ASSERT_EQ(p.success_time(), gt.end) << "process " << i;
    // The initial symptom is the fault's primary symptom.
    const auto& fault =
        dataset.catalog.faults[static_cast<std::size_t>(gt.fault_index)];
    EXPECT_EQ(dataset.result.log.symptoms().Name(p.initial_symptom()),
              fault.primary_symptom);
    total_downtime += p.downtime();
  }
  EXPECT_EQ(total_downtime, dataset.result.total_downtime);
}

TEST(SegmentationPropertyTest, AttemptCostsSumToDowntimeMinusDetection) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 50;
  config.sim.duration = 20 * kDay;
  const TraceDataset dataset = GenerateTrace(config);
  const SegmentationResult result = SegmentIntoProcesses(dataset.result.log);
  ASSERT_GT(result.processes.size(), 10u);
  for (const RecoveryProcess& p : result.processes) {
    SimTime action_total = 0;
    for (const ActionAttempt& a : p.attempts()) action_total += a.cost;
    EXPECT_EQ(p.detection_delay() + action_total, p.downtime());
    // Only the final attempt is marked cured.
    for (std::size_t i = 0; i + 1 < p.attempts().size(); ++i) {
      EXPECT_FALSE(p.attempts()[i].cured);
    }
    EXPECT_TRUE(p.attempts().back().cured);
  }
}

}  // namespace
}  // namespace aer
