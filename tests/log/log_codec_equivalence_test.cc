// Differential tests for the log codec, segmentation and the log report. The
// chunked RecoveryLog::Read, the buffered Write, the two-phase
// SegmentIntoProcesses and BuildLogReport (which reads only segmentation's
// process index) are checked against straightforward reference
// implementations kept here: a std::getline / Split / strtoll parser, an
// ostream-formatting writer, a copy-sort-segment-sort segmenter, and that
// segmenter's processes ranked by RankErrorTypes. The references define the
// behaviour; the library versions must match them on clean, corrupted,
// adversarial and randomly generated inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "inject/file_corruptor.h"
#include "log/log_report.h"
#include "log/log_stats.h"
#include "log/recovery_log.h"
#include "log/recovery_process.h"

namespace aer {
namespace {

// ---------------------------------------------------------------------------
// Reference codec.

namespace ref {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<std::int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

bool ParseFields(const std::vector<std::string_view>& fields,
                 SymptomTable& symptoms, LogEntry& e, std::string& reason) {
  if (fields.size() != 3) {
    reason = StrFormat("expected 3 tab-separated fields, got %zu",
                       fields.size());
    return false;
  }
  const auto time = ParseInt64(fields[0]);
  if (!time.has_value()) {
    reason = "unparseable time field";
    return false;
  }
  std::string_view machine_field = Trim(fields[1]);
  if (machine_field.empty() || machine_field.front() != 'm') {
    reason = "machine field lacks 'm' prefix";
    return false;
  }
  const auto machine = ParseInt64(machine_field.substr(1));
  if (!machine.has_value()) {
    reason = "unparseable machine id";
    return false;
  }
  // The one intended difference from a plain narrowing parser: ids outside
  // MachineId's range are rejected instead of aliasing another machine.
  if (*machine < std::numeric_limits<MachineId>::min() ||
      *machine > std::numeric_limits<MachineId>::max()) {
    reason = "machine id out of range";
    return false;
  }
  const std::string_view desc = Trim(fields[2]);

  e.time = *time;
  e.machine = static_cast<MachineId>(*machine);
  if (desc == "Success") {
    e.kind = EntryKind::kSuccess;
  } else if (StartsWith(desc, "error:")) {
    e.kind = EntryKind::kSymptom;
    e.symptom = symptoms.Intern(desc.substr(6));
  } else if (auto action = ParseAction(desc); action.has_value()) {
    e.kind = EntryKind::kAction;
    e.action = *action;
  } else {
    reason = "unknown description";
    return false;
  }
  return true;
}

std::vector<std::string_view> RepairFields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r') {
      ++i;
    }
    if (i > start) fields.push_back(line.substr(start, i - start));
  }
  return fields;
}

// Parse output plus the table the entries' symptom ids point into.
struct Parsed {
  LogParseResult result;
  std::vector<LogEntry> entries;
  std::vector<std::string> names;  // symptom names in id order
};

Parsed Read(std::istream& is, LogParseMode mode) {
  Parsed out;
  SymptomTable symptoms;
  LogParseResult& result = out.result;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (Trim(line).empty()) continue;

    LogEntry e;
    std::string reason;
    if (ParseFields(Split(line, '\t'), symptoms, e, reason)) {
      out.entries.push_back(e);
      ++result.parsed;
      continue;
    }
    if (mode == LogParseMode::kLenient) {
      std::string repair_reason;
      if (ParseFields(RepairFields(line), symptoms, e, repair_reason)) {
        out.entries.push_back(e);
        ++result.parsed;
        ++result.repaired;
        continue;
      }
    }
    if (result.first_error_line == 0) {
      result.first_error_line = lineno;
      result.first_error = reason;
    }
    if (mode == LogParseMode::kStrict) {
      result.ok = false;
      break;
    }
    ++result.skipped;
  }
  for (SymptomId id = 0; id < static_cast<SymptomId>(symptoms.size()); ++id) {
    out.names.push_back(symptoms.Name(id));
  }
  return out;
}

std::string Write(const RecoveryLog& log) {
  std::ostringstream os;
  for (const LogEntry& e : log.entries()) {
    os << e.time << '\t' << 'm' << e.machine << '\t'
       << DescribeEntry(e, log.symptoms()) << '\n';
  }
  return os.str();
}

SegmentationResult Segment(const RecoveryLog& log) {
  struct OpenProcess {
    std::vector<SymptomEvent> symptoms;
    std::vector<ActionAttempt> attempts;
    bool open = false;
  };
  std::vector<LogEntry> entries = log.entries();
  std::stable_sort(entries.begin(), entries.end(),
                   [](const LogEntry& a, const LogEntry& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.machine < b.machine;
                   });

  SegmentationResult result;
  std::unordered_map<MachineId, OpenProcess> open;
  const auto close_attempt = [](OpenProcess& p, SimTime now) {
    if (!p.attempts.empty()) {
      ActionAttempt& last = p.attempts.back();
      last.cost = now - last.start;
    }
  };
  for (const LogEntry& e : entries) {
    OpenProcess& p = open[e.machine];
    switch (e.kind) {
      case EntryKind::kSymptom:
        if (!p.open) {
          p.open = true;
          p.symptoms.clear();
          p.attempts.clear();
        }
        p.symptoms.push_back({e.time, e.symptom});
        break;
      case EntryKind::kAction:
        if (!p.open) {
          ++result.orphan_entries;
          break;
        }
        close_attempt(p, e.time);
        p.attempts.push_back({e.action, e.time, /*cost=*/0, /*cured=*/false});
        break;
      case EntryKind::kSuccess:
        if (!p.open) {
          ++result.orphan_entries;
          break;
        }
        close_attempt(p, e.time);
        if (!p.attempts.empty()) p.attempts.back().cured = true;
        result.processes.emplace_back(e.machine, std::move(p.symptoms),
                                      std::move(p.attempts), e.time);
        p = OpenProcess{};
        break;
    }
  }
  for (const auto& [machine, p] : open) {
    if (p.open) ++result.incomplete;
  }
  std::stable_sort(result.processes.begin(), result.processes.end(),
                   [](const RecoveryProcess& a, const RecoveryProcess& b) {
                     if (a.start_time() != b.start_time()) {
                       return a.start_time() < b.start_time();
                     }
                     return a.machine() < b.machine();
                   });
  return result;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Helpers.

// A streambuf that hands out 1-7 bytes per underflow, so a reader sees the
// text in ragged pieces and lines straddle every kind of boundary.
class DribbleBuf : public std::streambuf {
 public:
  DribbleBuf(std::string text, std::uint64_t seed)
      : text_(std::move(text)), rng_(seed) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ >= text_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(
        text_.size() - pos_, static_cast<std::size_t>(rng_.NextInt(1, 7)));
    char* const base = text_.data() + pos_;
    setg(base, base, base + n);
    pos_ += n;
    return traits_type::to_int_type(*base);
  }

 private:
  std::string text_;
  Rng rng_;
  std::size_t pos_ = 0;
};

void ExpectSameParse(const ref::Parsed& want, const LogParseResult& got,
                     const RecoveryLog& log, const std::string& label) {
  EXPECT_EQ(got.ok, want.result.ok) << label;
  EXPECT_EQ(got.parsed, want.result.parsed) << label;
  EXPECT_EQ(got.repaired, want.result.repaired) << label;
  EXPECT_EQ(got.skipped, want.result.skipped) << label;
  EXPECT_EQ(got.first_error_line, want.result.first_error_line) << label;
  EXPECT_EQ(got.first_error, want.result.first_error) << label;
  EXPECT_EQ(log.entries(), want.entries) << label;
  std::vector<std::string> names;
  for (SymptomId id = 0; id < static_cast<SymptomId>(log.symptoms().size());
       ++id) {
    names.push_back(log.symptoms().Name(id));
  }
  EXPECT_EQ(names, want.names) << label;
}

// Parses `text` in both modes, from a whole-string stream and from a
// DribbleBuf, and compares every outcome with the reference parser.
void ExpectParsesLikeReference(const std::string& text,
                               const std::string& label,
                               std::uint64_t dribble_seed = 1) {
  for (const LogParseMode mode :
       {LogParseMode::kStrict, LogParseMode::kLenient}) {
    const std::string mode_label =
        label + (mode == LogParseMode::kStrict ? " [strict]" : " [lenient]");
    std::istringstream ref_in(text);
    const ref::Parsed want = ref::Read(ref_in, mode);
    {
      std::istringstream in(text);
      RecoveryLog log;
      ExpectSameParse(want, RecoveryLog::Read(in, log, mode), log,
                      mode_label + " [stringstream]");
    }
    {
      DribbleBuf buf(text, dribble_seed);
      std::istream in(&buf);
      RecoveryLog log;
      ExpectSameParse(want, RecoveryLog::Read(in, log, mode), log,
                      mode_label + " [dribble]");
    }
  }
}

// A random log over a few machines (negative and sparse ids included) with
// many equal timestamps, so it holds orphan actions and successes,
// incomplete tails and same-second reopens. Entries come in non-decreasing
// time but arbitrary machine order, i.e. not sorted by (time, machine).
RecoveryLog RandomLog(std::uint64_t seed, int entries) {
  Rng rng(seed);
  RecoveryLog log;
  const std::vector<std::string> names = {"Watchdog", "Disk Error", "",
                                          "Hardware:EventLog", "NIC-Flap"};
  std::vector<SymptomId> ids;
  for (const std::string& name : names) {
    ids.push_back(log.symptoms().Intern(name));
  }
  const std::vector<MachineId> pool = {
      std::numeric_limits<MachineId>::min(), -40000, -1, 0, 1, 2, 3, 7,
      1 << 20, std::numeric_limits<MachineId>::max()};
  std::vector<MachineId> machines;
  const int machine_count = static_cast<int>(rng.NextInt(1, 6));
  for (int i = 0; i < machine_count; ++i) {
    machines.push_back(pool[rng.NextBounded(pool.size())]);
  }
  SimTime t = rng.NextInt(-50, 50);
  for (int i = 0; i < entries; ++i) {
    t += rng.NextInt(0, 2);
    const MachineId m = machines[rng.NextBounded(machines.size())];
    const double u = rng.NextDouble();
    if (u < 0.45) {
      log.Append(LogEntry::Symptom(t, m, ids[rng.NextBounded(ids.size())]));
    } else if (u < 0.8) {
      log.Append(LogEntry::Action(
          t, m, ActionFromIndex(static_cast<int>(rng.NextBounded(4)))));
    } else {
      log.Append(LogEntry::Success(t, m));
      // Reopen at the same second now and then.
      if (rng.NextBool(0.3)) {
        log.Append(LogEntry::Symptom(t, m, ids[rng.NextBounded(ids.size())]));
      }
    }
  }
  return log;
}

void ExpectSameSegmentation(const SegmentationResult& want,
                            const SegmentationResult& got,
                            const std::string& label) {
  EXPECT_EQ(got.incomplete, want.incomplete) << label;
  EXPECT_EQ(got.orphan_entries, want.orphan_entries) << label;
  ASSERT_EQ(got.processes.size(), want.processes.size()) << label;
  for (std::size_t i = 0; i < want.processes.size(); ++i) {
    const RecoveryProcess& w = want.processes[i];
    const RecoveryProcess& g = got.processes[i];
    EXPECT_EQ(g.machine(), w.machine()) << label << " process " << i;
    EXPECT_EQ(g.symptoms(), w.symptoms()) << label << " process " << i;
    EXPECT_EQ(g.attempts(), w.attempts()) << label << " process " << i;
    EXPECT_EQ(g.success_time(), w.success_time()) << label << " process " << i;
  }
}

// BuildLogReport against the reference segmentation ranked by
// RankErrorTypes, at top-k cuts below, at and above the number of types.
void ExpectReportLikeReference(const RecoveryLog& log,
                               const std::string& label) {
  const SegmentationResult want = ref::Segment(log);
  const std::vector<ErrorTypeStat> ranked = RankErrorTypes(want.processes);
  SimTime downtime = 0;
  for (const RecoveryProcess& p : want.processes) downtime += p.downtime();
  for (const std::size_t top_k : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{1000}}) {
    const std::string at = label + " top " + std::to_string(top_k);
    const LogReport got = BuildLogReport(log, top_k);
    EXPECT_EQ(got.entries, log.size()) << at;
    EXPECT_EQ(got.processes, want.processes.size()) << at;
    EXPECT_EQ(got.incomplete, want.incomplete) << at;
    EXPECT_EQ(got.orphan_entries, want.orphan_entries) << at;
    EXPECT_EQ(got.total_downtime, downtime) << at;
    EXPECT_EQ(got.error_types, ranked.size()) << at;
    ASSERT_EQ(got.top_types.size(), std::min(top_k, ranked.size())) << at;
    for (std::size_t i = 0; i < got.top_types.size(); ++i) {
      EXPECT_EQ(got.top_types[i].type, ranked[i].type) << at << " rank " << i;
      EXPECT_EQ(got.top_types[i].process_count, ranked[i].process_count)
          << at << " rank " << i;
      EXPECT_EQ(got.top_types[i].total_downtime, ranked[i].total_downtime)
          << at << " rank " << i;
    }
  }
}

// A random log over the given machines: times never decrease, but many
// machines share each second in random order, so the log is not sorted by
// (time, machine) and the segmenter sorts a copy.
RecoveryLog RandomFleetLog(std::uint64_t seed,
                           const std::vector<MachineId>& machines,
                           int entries) {
  Rng rng(seed);
  RecoveryLog log;
  std::vector<SymptomId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(log.symptoms().Intern("s" + std::to_string(i)));
  }
  SimTime t = 0;
  for (int i = 0; i < entries; ++i) {
    t += rng.NextInt(0, 1);
    const MachineId m = machines[rng.NextBounded(machines.size())];
    const double u = rng.NextDouble();
    if (u < 0.5) {
      log.Append(LogEntry::Symptom(t, m, ids[rng.NextBounded(ids.size())]));
    } else if (u < 0.8) {
      log.Append(LogEntry::Action(
          t, m, ActionFromIndex(static_cast<int>(rng.NextBounded(4)))));
    } else {
      log.Append(LogEntry::Success(t, m));
    }
  }
  return log;
}

std::string WriteToString(const RecoveryLog& log) {
  std::ostringstream os;
  log.Write(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Parser.

TEST(LogCodecEquivalenceTest, CorruptedLogsParseLikeReference) {
  // ~100 KiB of text, so lines also straddle Read's chunk boundary.
  RecoveryLog clean = RandomLog(/*seed=*/11, /*entries=*/4000);
  clean.SortByTime();
  const std::string text = WriteToString(clean);
  ASSERT_GT(text.size(), 64u * 1024u);
  ExpectParsesLikeReference(text, "clean");

  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    for (const double fraction : {0.02, 0.3, 1.0}) {
      Rng rng(seed);
      ExpectParsesLikeReference(CorruptLines(text, fraction, rng),
                                label + " lines " + std::to_string(fraction),
                                seed);
    }
    Rng rng(seed);
    std::string flipped = text;
    BitFlip(flipped, 200, rng);
    ExpectParsesLikeReference(flipped, label + " bitflip", seed);
    ExpectParsesLikeReference(TruncateRandomly(text, rng), label + " truncate",
                              seed);
  }
}

TEST(LogCodecEquivalenceTest, EdgeLinesParseLikeReference) {
  const std::vector<std::string> lines = {
      "+7\tm1\tSuccess",
      "+-1\tm1\tSuccess",
      "-\tm1\tSuccess",
      "+\tm1\tSuccess",
      "9223372036854775807\tm1\tSuccess",
      "-9223372036854775808\tm1\tSuccess",
      "9223372036854775808\tm1\tSuccess",
      "-9223372036854775809\tm1\tSuccess",
      "1\tm+7\tSuccess",
      "1\tm+-1\tSuccess",
      "1\tm-5\tREBOOT",
      "1\tm 5\tREBOOT",
      "1\tm2147483647\tSuccess",
      "1\tm-2147483648\tSuccess",
      "1\tm2147483648\tSuccess",
      "1\tm4294967297\terror:Watchdog",
      "1\tm1\tSuccess\r",
      "1 m1 Success\r",
      "",
      "   ",
      "\t\t",
      " \r",
      "1\tm1\terror:Disk\tError",
      "1\tm1\terror:",
      "1\tm1\terror:   ",
      "1\tm1\t error:Watchdog ",
      "1\tm1\tSuccess\t",
      "1\tm1",
      "1\tm\tSuccess",
      "x\ty\tz\tw\tv",
  };
  std::string all;
  for (const std::string& line : lines) {
    ExpectParsesLikeReference(line, "[" + line + "]");
    ExpectParsesLikeReference(line + "\n", "[" + line + "\\n]");
    ExpectParsesLikeReference("1\tm1\terror:a\n" + line + "\n2\tm1\tSuccess",
                              "embedded [" + line + "]");
    all += line + "\n";
  }
  ExpectParsesLikeReference(all, "all edge lines");
  ExpectParsesLikeReference("", "empty input");
  ExpectParsesLikeReference("\n\n\n", "newlines only");
  ExpectParsesLikeReference("1\tm1\tSuccess", "no trailing newline");
  ExpectParsesLikeReference("1\tm1\tSuccess\r\n2\tm1\tTRYNOP\r\n", "CRLF");
}

TEST(LogCodecEquivalenceTest, LongLinesParseLikeReference) {
  const std::string huge(200 * 1024, 'x');
  // Start the long line mid-chunk, behind a few ordinary lines.
  std::string prefix;
  for (int i = 0; i < 1000; ++i) prefix += "5\tm3\tREBOOT\n";
  ExpectParsesLikeReference(prefix + "1\tm1\terror:" + huge + "\n" + prefix,
                            "long symptom name");
  ExpectParsesLikeReference(prefix + huge + "\n" + prefix, "long junk line");
  ExpectParsesLikeReference(prefix + "1\tm1\terror:" + huge, "long last line");
  ExpectParsesLikeReference(std::string(200 * 1024, '\n') + "1\tm1\tSuccess",
                            "long run of blank lines");
}

// ---------------------------------------------------------------------------
// Segmentation and the Write/Read round trip.

TEST(SegmentationEquivalenceTest, RandomLogsSegmentLikeReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const int size = static_cast<int>(Rng(seed).NextInt(0, 400));
    RecoveryLog log = RandomLog(seed, size);
    const std::string label = "seed " + std::to_string(seed);

    // As generated (time-ordered, machines interleaved), shuffled, sorted.
    ExpectSameSegmentation(ref::Segment(log), SegmentIntoProcesses(log),
                           label + " generated");
    ExpectReportLikeReference(log, label + " generated");
    std::vector<LogEntry> entries = log.entries();
    Rng rng(seed);
    std::shuffle(entries.begin(), entries.end(), rng);
    RecoveryLog shuffled;
    for (SymptomId id = 0; id < static_cast<SymptomId>(log.symptoms().size());
         ++id) {
      shuffled.symptoms().Intern(log.symptoms().Name(id));
    }
    for (const LogEntry& e : entries) shuffled.Append(e);
    ExpectSameSegmentation(ref::Segment(shuffled),
                           SegmentIntoProcesses(shuffled), label + " shuffled");
    ExpectReportLikeReference(shuffled, label + " shuffled");
    log.SortByTime();
    ExpectSameSegmentation(ref::Segment(log), SegmentIntoProcesses(log),
                           label + " sorted");
    ExpectReportLikeReference(log, label + " sorted");
  }
}

TEST(SegmentationEquivalenceTest, SameSecondReopenKeepsCloseOrder) {
  RecoveryLog log;
  const SymptomId a = log.symptoms().Intern("a");
  const SymptomId b = log.symptoms().Intern("b");
  log.Append(LogEntry::Symptom(10, 4, a));
  log.Append(LogEntry::Success(10, 4));
  log.Append(LogEntry::Symptom(10, 4, b));
  log.Append(LogEntry::Action(10, 4, RepairAction::kReboot));
  log.Append(LogEntry::Success(10, 4));
  log.Append(LogEntry::Symptom(10, 4, a));  // incomplete tail
  const SegmentationResult got = SegmentIntoProcesses(log);
  ExpectSameSegmentation(ref::Segment(log), got, "reopen");
  ASSERT_EQ(got.processes.size(), 2u);
  EXPECT_EQ(got.processes[0].initial_symptom(), a);
  EXPECT_EQ(got.processes[1].initial_symptom(), b);
  EXPECT_EQ(got.incomplete, 1);
}

TEST(SegmentationEquivalenceTest, WriteMatchesReferenceAndRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    RecoveryLog log = RandomLog(seed, static_cast<int>(seed) * 40);
    if (seed % 2 == 0) log.SortByTime();
    const std::string text = WriteToString(log);
    EXPECT_EQ(text, ref::Write(log)) << label;

    std::istringstream in(text);
    RecoveryLog parsed;
    ASSERT_TRUE(RecoveryLog::Read(in, parsed, LogParseMode::kStrict).ok)
        << label;
    EXPECT_EQ(WriteToString(parsed), text) << label;
    ExpectSameSegmentation(ref::Segment(parsed), SegmentIntoProcesses(parsed),
                           label + " reparsed");
    ExpectReportLikeReference(parsed, label + " reparsed");
  }
}

// The report over lenient parses of corrupted text: damaged times leave the
// log out of order, damaged machine fields move entries to other machines.
TEST(ReportEquivalenceTest, CorruptedLogsReportLikeReference) {
  RecoveryLog clean = RandomLog(/*seed=*/11, /*entries=*/4000);
  clean.SortByTime();
  const std::string text = WriteToString(clean);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    Rng rng(seed);
    std::string flipped = text;
    BitFlip(flipped, 200, rng);
    const std::vector<std::pair<std::string, std::string>> damaged = {
        {label + " lines", CorruptLines(text, 0.3, rng)},
        {label + " bitflip", flipped},
        {label + " truncate", TruncateRandomly(text, rng)},
    };
    for (const auto& [what, damaged_text] : damaged) {
      std::istringstream in(damaged_text);
      RecoveryLog parsed;
      ASSERT_TRUE(RecoveryLog::Read(in, parsed, LogParseMode::kLenient).ok)
          << what;
      ExpectSameSegmentation(ref::Segment(parsed), SegmentIntoProcesses(parsed),
                             what);
      ExpectReportLikeReference(parsed, what);
    }
  }
}

// More than 5,000 distinct machines with ids spread over the whole MachineId
// range, so segmentation's machine table grows several times.
TEST(ReportEquivalenceTest, ManyMachinesGrowTheMachineTable) {
  Rng rng(7);
  std::set<MachineId> distinct = {std::numeric_limits<MachineId>::min(),
                                  std::numeric_limits<MachineId>::max(), -1,
                                  0};
  while (distinct.size() < 6000) {
    distinct.insert(static_cast<MachineId>(rng.Next()));
  }
  const std::vector<MachineId> machines(distinct.begin(), distinct.end());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RecoveryLog log = RandomFleetLog(seed, machines, 60000);
    const std::string label = "seed " + std::to_string(seed);
    ExpectSameSegmentation(ref::Segment(log), SegmentIntoProcesses(log), label);
    ExpectReportLikeReference(log, label);
  }
}

// Ids that are all equal modulo every power-of-two table size up to 2^16,
// negative ones included.
TEST(ReportEquivalenceTest, IdsEqualModuloTheTableSize) {
  std::vector<MachineId> machines;
  for (MachineId k = -2000; k < 2000; ++k) machines.push_back(k * 65536);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RecoveryLog log = RandomFleetLog(seed, machines, 40000);
    const std::string label = "seed " + std::to_string(seed);
    ExpectSameSegmentation(ref::Segment(log), SegmentIntoProcesses(log), label);
    ExpectReportLikeReference(log, label);
  }
}

}  // namespace
}  // namespace aer
