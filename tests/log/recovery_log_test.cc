#include "log/recovery_log.h"

#include <sstream>

#include <gtest/gtest.h>

namespace aer {
namespace {

RecoveryLog MakeSampleLog() {
  RecoveryLog log;
  const SymptomId watchdog = log.symptoms().Intern("IFM-ISNWatchdog");
  const SymptomId hw = log.symptoms().Intern("Hardware:EventLog");
  log.Append(LogEntry::Symptom(11232, 3, watchdog));
  log.Append(LogEntry::Symptom(11458, 3, hw));
  log.Append(LogEntry::Action(12206, 3, RepairAction::kTryNop));
  log.Append(LogEntry::Symptom(12337, 3, hw));
  log.Append(LogEntry::Action(13330, 3, RepairAction::kReboot));
  log.Append(LogEntry::Success(15187, 3));
  return log;
}

TEST(DescribeEntryTest, MatchesTable1Format) {
  const RecoveryLog log = MakeSampleLog();
  EXPECT_EQ(DescribeEntry(log.entries()[0], log.symptoms()),
            "error:IFM-ISNWatchdog");
  EXPECT_EQ(DescribeEntry(log.entries()[2], log.symptoms()), "TRYNOP");
  EXPECT_EQ(DescribeEntry(log.entries()[5], log.symptoms()), "Success");
}

TEST(RecoveryLogTest, WriteReadRoundTrip) {
  const RecoveryLog log = MakeSampleLog();
  std::stringstream ss;
  log.Write(ss);

  RecoveryLog parsed;
  ASSERT_TRUE(RecoveryLog::Read(ss, parsed, LogParseMode::kStrict).ok);
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(parsed.entries()[i], log.entries()[i]) << "entry " << i;
  }
  EXPECT_EQ(parsed.symptoms().size(), log.symptoms().size());
}

TEST(RecoveryLogTest, WriteFormatIsTabSeparated) {
  RecoveryLog log;
  log.Append(LogEntry::Action(42, 7, RepairAction::kReimage));
  std::stringstream ss;
  log.Write(ss);
  EXPECT_EQ(ss.str(), "42\tm7\tREIMAGE\n");
}

TEST(RecoveryLogTest, ReadSkipsBlankLines) {
  std::stringstream ss("\n42\tm1\tSuccess\n\n  \n");
  RecoveryLog parsed;
  ASSERT_TRUE(RecoveryLog::Read(ss, parsed, LogParseMode::kStrict).ok);
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(RecoveryLogTest, ReadRejectsMalformedLines) {
  const char* bad_lines[] = {
      "notanumber\tm1\tSuccess",  // bad time
      "42\t1\tSuccess",           // machine missing 'm' prefix
      "42\tmX\tSuccess",          // bad machine id
      "42\tm1\tUNKNOWNACTION",    // unknown description
      "42\tm1",                   // too few fields
      "42\tm1\tSuccess\textra",   // too many fields
  };
  for (const char* line : bad_lines) {
    std::stringstream ss(line);
    RecoveryLog parsed;
    EXPECT_FALSE(RecoveryLog::Read(ss, parsed, LogParseMode::kStrict).ok)
        << line;
  }
}

// A machine id wider than MachineId used to be narrowed, so m4294967297
// read as m1 and segmentation joined two machines' entries into one process.
TEST(RecoveryLogTest, ReadRejectsOutOfRangeMachineId) {
  const char kText[] = "100\tm4294967297\terror:Watchdog\n200\tm1\tSuccess\n";
  {
    std::stringstream ss(kText);
    RecoveryLog parsed;
    const LogParseResult result =
        RecoveryLog::Read(ss, parsed, LogParseMode::kStrict);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.first_error_line, 1u);
    EXPECT_EQ(result.first_error, "machine id out of range");
  }
  {
    std::stringstream ss(kText);
    RecoveryLog parsed;
    const LogParseResult result =
        RecoveryLog::Read(ss, parsed, LogParseMode::kLenient);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.skipped, 1u);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.entries()[0], LogEntry::Success(200, 1));
  }
  for (const char* line : {"1\tm2147483648\tSuccess", "1\tm-2147483649\tSuccess"}) {
    std::stringstream ss(line);
    RecoveryLog parsed;
    EXPECT_FALSE(RecoveryLog::Read(ss, parsed, LogParseMode::kStrict).ok)
        << line;
  }
  std::stringstream edges("1\tm2147483647\tSuccess\n1\tm-2147483648\tSuccess\n");
  RecoveryLog parsed;
  ASSERT_TRUE(RecoveryLog::Read(edges, parsed, LogParseMode::kStrict).ok);
  EXPECT_EQ(parsed.entries()[0].machine, 2147483647);
  EXPECT_EQ(parsed.entries()[1].machine, -2147483647 - 1);
}

TEST(RecoveryLogTest, ReadEmptyStreamYieldsEmptyLog) {
  std::stringstream ss("");
  RecoveryLog parsed;
  ASSERT_TRUE(RecoveryLog::Read(ss, parsed, LogParseMode::kStrict).ok);
  EXPECT_TRUE(parsed.empty());
}

TEST(RecoveryLogTest, SortByTimeIsStablePerMachine) {
  RecoveryLog log;
  const SymptomId s = log.symptoms().Intern("s");
  // Same timestamp on one machine: symptom inserted before action must stay
  // first.
  log.Append(LogEntry::Symptom(100, 1, s));
  log.Append(LogEntry::Action(100, 1, RepairAction::kTryNop));
  log.Append(LogEntry::Symptom(50, 2, s));
  log.SortByTime();
  EXPECT_EQ(log.entries()[0].time, 50);
  EXPECT_EQ(log.entries()[1].kind, EntryKind::kSymptom);
  EXPECT_EQ(log.entries()[2].kind, EntryKind::kAction);
}

TEST(RecoveryLogTest, FileRoundTrip) {
  const RecoveryLog log = MakeSampleLog();
  const std::string path = ::testing::TempDir() + "/aer_log_roundtrip.log";
  log.WriteFile(path);
  RecoveryLog parsed;
  ASSERT_TRUE(RecoveryLog::ReadFile(path, parsed, LogParseMode::kStrict).ok);
  EXPECT_EQ(parsed.size(), log.size());
  std::remove(path.c_str());
}

TEST(RecoveryLogTest, ReadFileMissingReturnsFalse) {
  RecoveryLog parsed;
  EXPECT_FALSE(RecoveryLog::ReadFile("/nonexistent/path.log", parsed,
                                     LogParseMode::kStrict)
                   .ok);
}

}  // namespace
}  // namespace aer
