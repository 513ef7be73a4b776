// Fuzz-style robustness of the log parser and the segmenter: randomly
// generated well-formed logs must round-trip and segment cleanly; random
// corruptions of valid lines must be rejected without crashing.
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "log/recovery_process.h"

namespace aer {
namespace {

// Generates a random but structurally valid log: per machine, alternating
// open-process symptom/action runs closed by Success.
RecoveryLog RandomValidLog(Rng& rng) {
  RecoveryLog log;
  std::vector<SymptomId> symptoms;
  for (int s = 0; s < 12; ++s) {
    symptoms.push_back(
        log.symptoms().Intern("Sym" + std::to_string(s)));
  }
  const int machines = 1 + static_cast<int>(rng.NextBounded(6));
  for (MachineId m = 0; m < machines; ++m) {
    SimTime t = static_cast<SimTime>(rng.NextBounded(1000));
    const int processes = 1 + static_cast<int>(rng.NextBounded(7));
    for (int p = 0; p < processes; ++p) {
      const int syms = 1 + static_cast<int>(rng.NextBounded(4));
      for (int s = 0; s < syms; ++s) {
        log.Append(LogEntry::Symptom(
            t, m, symptoms[rng.NextBounded(symptoms.size())]));
        t += 1 + static_cast<SimTime>(rng.NextBounded(100));
      }
      const int actions = 1 + static_cast<int>(rng.NextBounded(5));
      for (int a = 0; a < actions; ++a) {
        log.Append(LogEntry::Action(
            t, m,
            ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)))));
        t += 1 + static_cast<SimTime>(rng.NextBounded(3000));
      }
      log.Append(LogEntry::Success(t, m));
      t += 1 + static_cast<SimTime>(rng.NextBounded(100000));
    }
  }
  log.SortByTime();
  return log;
}

TEST(LogFuzzTest, RandomValidLogsRoundTripAndSegment) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const RecoveryLog log = RandomValidLog(rng);
    std::stringstream ss;
    log.Write(ss);
    RecoveryLog reread;
    ASSERT_TRUE(RecoveryLog::Read(ss, reread, LogParseMode::kStrict).ok)
        << "trial " << trial;
    ASSERT_EQ(reread.size(), log.size());

    const auto a = SegmentIntoProcesses(log);
    const auto b = SegmentIntoProcesses(reread);
    ASSERT_EQ(a.processes.size(), b.processes.size());
    ASSERT_EQ(a.incomplete, b.incomplete);
    ASSERT_EQ(a.orphan_entries, b.orphan_entries);
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
      ASSERT_EQ(a.processes[i].downtime(), b.processes[i].downtime());
      ASSERT_EQ(a.processes[i].attempts().size(),
                b.processes[i].attempts().size());
    }
  }
}

TEST(LogFuzzTest, CorruptedLinesAreRejectedNotCrashed) {
  Rng rng(202);
  const RecoveryLog log = RandomValidLog(rng);
  std::stringstream ss;
  log.Write(ss);
  const std::string text = ss.str();
  ASSERT_GT(text.size(), 100u);

  int rejected = 0;
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = text;
    // Mutate 1-3 random bytes to random printable garbage.
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int k = 0; k < mutations; ++k) {
      const std::size_t pos = rng.NextBounded(corrupted.size());
      corrupted[pos] =
          static_cast<char>('!' + rng.NextBounded(90));
    }
    std::stringstream cs(corrupted);
    RecoveryLog parsed;
    // Either cleanly rejected or parsed as a (different but valid) log;
    // never a crash or a CHECK failure.
    if (RecoveryLog::Read(cs, parsed, LogParseMode::kStrict).ok) {
      ++accepted;
      // If accepted, the parsed log must itself round-trip.
      std::stringstream rs;
      parsed.Write(rs);
      RecoveryLog again;
      ASSERT_TRUE(RecoveryLog::Read(rs, again, LogParseMode::kStrict).ok);
      // And segmentation must not crash on it.
      SegmentIntoProcesses(parsed);
    } else {
      ++rejected;
    }
  }
  // Most random mutations corrupt the framing and must be rejected.
  EXPECT_GT(rejected, 100);
  // Some mutations only touch symptom-name bytes and stay valid.
  EXPECT_GT(accepted, 0);
}

TEST(LogFuzzTest, TruncatedLogsParseToPrefix) {
  Rng rng(303);
  const RecoveryLog log = RandomValidLog(rng);
  std::stringstream ss;
  log.Write(ss);
  const std::string text = ss.str();

  // Truncate at a line boundary: always parses to the prefix.
  std::size_t newline = text.find('\n');
  int checked = 0;
  while (newline != std::string::npos && checked < 10) {
    std::stringstream ts(text.substr(0, newline + 1));
    RecoveryLog parsed;
    ASSERT_TRUE(RecoveryLog::Read(ts, parsed, LogParseMode::kStrict).ok);
    SegmentIntoProcesses(parsed);  // tolerates incomplete tails
    newline = text.find('\n', newline + 1 + text.size() / 12);
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

}  // namespace
}  // namespace aer
