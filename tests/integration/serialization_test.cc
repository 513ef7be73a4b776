// Serialization round trips at system scale: a full generated trace written
// to disk and re-read must drive the entire pipeline to identical results,
// and merged multi-period logs must behave like their concatenation.
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/policy_generator.h"
#include "fleet/trace.h"
#include "log/log_stats.h"

namespace aer {
namespace {

TraceConfig TinyTrace(std::uint64_t seed_offset = 0) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 150;
  config.sim.duration = 45 * kDay;
  config.sim.seed += seed_offset;
  return config;
}

TEST(SerializationRoundTripTest, FullTraceThroughDisk) {
  const TraceDataset dataset = GenerateTrace(TinyTrace());
  const std::string path = ::testing::TempDir() + "/aer_trace_roundtrip.log";
  dataset.result.log.WriteFile(path);

  RecoveryLog reread;
  ASSERT_TRUE(RecoveryLog::ReadFile(path, reread, LogParseMode::kStrict).ok);
  std::remove(path.c_str());

  ASSERT_EQ(reread.size(), dataset.result.log.size());
  // Symptom ids are re-interned in first-appearance order on read (the
  // simulator interned the whole catalog up-front), so compare entries up to
  // the id renaming — i.e., by rendered description.
  for (std::size_t i = 0; i < reread.size(); ++i) {
    const LogEntry& a = reread.entries()[i];
    const LogEntry& b = dataset.result.log.entries()[i];
    ASSERT_EQ(a.time, b.time) << "entry " << i;
    ASSERT_EQ(a.machine, b.machine) << "entry " << i;
    ASSERT_EQ(DescribeEntry(a, reread.symptoms()),
              DescribeEntry(b, dataset.result.log.symptoms()))
        << "entry " << i;
  }

  // Segmentation of the reread log matches exactly.
  const auto a = SegmentIntoProcesses(dataset.result.log);
  const auto b = SegmentIntoProcesses(reread);
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    ASSERT_EQ(a.processes[i].downtime(), b.processes[i].downtime());
    ASSERT_EQ(a.processes[i].machine(), b.processes[i].machine());
  }
}

TEST(SerializationRoundTripTest, PolicyThroughDiskDrivesSameDecisions) {
  const TraceDataset dataset = GenerateTrace(TinyTrace());
  PolicyGeneratorConfig config;
  config.trainer.max_sweeps = 8000;
  config.trainer.min_sweeps = 2000;
  const PolicyGenerator generator(config);
  const TrainedPolicy policy = generator.Generate(dataset.result.log);

  const std::string path = ::testing::TempDir() + "/aer_policy_roundtrip.txt";
  {
    std::ofstream os(path);
    policy.Write(os);
  }
  TrainedPolicy reread;
  {
    std::ifstream is(path);
    ASSERT_TRUE(TrainedPolicy::Read(is, reread));
  }
  std::remove(path.c_str());

  ASSERT_EQ(reread.num_types(), policy.num_types());
  for (const auto& entry : policy.entries()) {
    // Identical lookups at every prefix.
    for (std::size_t len = 0; len <= entry.sequence.size(); ++len) {
      const std::span<const RepairAction> prefix(entry.sequence.data(), len);
      ASSERT_EQ(reread.Lookup(entry.symptom_name, prefix),
                policy.Lookup(entry.symptom_name, prefix));
    }
  }
}

// `log` with every entry moved `offset` seconds later.
RecoveryLog Shifted(const RecoveryLog& log, SimTime offset) {
  RecoveryLog shifted;
  shifted.symptoms() = log.symptoms();
  for (LogEntry e : log.entries()) {
    e.time += offset;
    shifted.Append(e);
  }
  return shifted;
}

TEST(LogMergeTest, MergedPeriodsEqualConcatenation) {
  const TraceDataset period1 = GenerateTrace(TinyTrace(0));
  const auto seg1 = SegmentIntoProcesses(period1.result.log);
  ASSERT_FALSE(period1.result.log.empty());
  const SimTime period1_end = period1.result.log.entries().back().time;

  for (std::uint64_t offset = 1; offset <= 40; ++offset) {
    SCOPED_TRACE(testing::Message() << "period 2 seed offset " << offset);
    const TraceDataset period2 = GenerateTrace(TinyTrace(offset));
    // Period 2 starts after period 1's last entry, so the merge is a real
    // concatenation: no machine's processes from the two periods interleave.
    const RecoveryLog later = Shifted(period2.result.log, period1_end + 1);

    RecoveryLog merged;
    merged.Merge(period1.result.log);
    merged.Merge(later);
    merged.SortByTime();

    const auto seg2 = SegmentIntoProcesses(later);
    const auto seg_merged = SegmentIntoProcesses(merged);

    // Every simulated process runs to completion, so each period's log ends
    // with all machines recovered and the counts and downtimes add exactly.
    EXPECT_EQ(seg_merged.processes.size(),
              seg1.processes.size() + seg2.processes.size());
    EXPECT_EQ(TotalDowntime(seg_merged.processes),
              TotalDowntime(seg1.processes) + TotalDowntime(seg2.processes));

    // Symptom names survive the remap: every name in period 2 resolves in
    // the merged table.
    for (const LogEntry& e : later.entries()) {
      if (e.kind != EntryKind::kSymptom) continue;
      EXPECT_NE(merged.symptoms().Find(later.symptoms().Name(e.symptom)),
                kInvalidSymptom);
    }
  }
}

TEST(LogMergeTest, RetrainingOnMergedHistoryUsesBothPeriods) {
  const TraceDataset period1 = GenerateTrace(TinyTrace(0));
  const TraceDataset period2 = GenerateTrace(TinyTrace(7));

  RecoveryLog merged;
  merged.Merge(period1.result.log);
  merged.Merge(period2.result.log);
  merged.SortByTime();

  PolicyGeneratorConfig config;
  config.trainer.max_sweeps = 6000;
  config.trainer.min_sweeps = 2000;
  const PolicyGenerator generator(config);
  PolicyGenerationReport merged_report;
  generator.Generate(merged, &merged_report);
  PolicyGenerationReport single_report;
  generator.Generate(period1.result.log, &single_report);

  EXPECT_GT(merged_report.total_processes, single_report.total_processes);
}

}  // namespace
}  // namespace aer
