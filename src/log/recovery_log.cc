#include "log/recovery_log.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "common/check.h"
#include "common/string_util.h"

namespace aer {
namespace {

// Bytes per istream read in Read() and per os.write in Write(). Read keeps
// at most one chunk plus the longest line in memory.
constexpr std::size_t kChunkBytes = 64 * 1024;

// The shortest line that yields an entry: "0\tm0\tRMA\n".
constexpr std::size_t kMinLineBytes = 9;

// The fields of one line: the first (up to) three, plus how many the line
// has in all, so a line with too many fields still reports its count.
struct LineFields {
  std::array<std::string_view, 3> field;
  std::size_t count = 0;

  void Add(std::string_view f) {
    if (count < field.size()) field[count] = f;
    ++count;
  }
};

// Splits on single tabs, keeping empty fields (the format Write() emits).
LineFields SplitTabs(std::string_view line) {
  LineFields fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find('\t', start);
    if (pos == std::string_view::npos) {
      fields.Add(line.substr(start));
      return fields;
    }
    fields.Add(line.substr(start, pos - start));
    start = pos + 1;
  }
}

// Parses one already-split line into `e`. Returns false with a reason when
// any field is malformed. The symptom table is only touched on success.
bool ParseFields(const LineFields& fields, SymptomTable& symptoms, LogEntry& e,
                 std::string& reason) {
  if (fields.count != 3) {
    reason = StrFormat("expected 3 tab-separated fields, got %zu",
                       fields.count);
    return false;
  }
  const auto time = ParseInt64(fields.field[0]);
  if (!time.has_value()) {
    reason = "unparseable time field";
    return false;
  }
  std::string_view machine_field = Trim(fields.field[1]);
  if (machine_field.empty() || machine_field.front() != 'm') {
    reason = "machine field lacks 'm' prefix";
    return false;
  }
  const auto machine = ParseInt64(machine_field.substr(1));
  if (!machine.has_value()) {
    reason = "unparseable machine id";
    return false;
  }
  // A wider id would alias another machine once narrowed to MachineId.
  if (*machine < std::numeric_limits<MachineId>::min() ||
      *machine > std::numeric_limits<MachineId>::max()) {
    reason = "machine id out of range";
    return false;
  }
  const std::string_view desc = Trim(fields.field[2]);

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

// Lenient repair: splits on runs of any whitespace instead of single tabs
// (tolerates space-separated exports and stray CRs) and drops trailing
// empty fields.
LineFields RepairFields(std::string_view line) {
  LineFields fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\r')) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r') {
      ++i;
    }
    if (i > start) fields.Add(line.substr(start, i - start));
  }
  return fields;
}

// Appends `value` in decimal, as `os << value` would.
void AppendInt(std::string& out, std::int64_t value) {
  char digits[24];  // 19 digits and a sign always fit
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

}  // namespace

void RecoveryLog::SortByTime() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const LogEntry& a, const LogEntry& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.machine < b.machine;
                   });
}

void RecoveryLog::Merge(const RecoveryLog& other) {
  // Remap the other table's symptom ids into ours.
  std::vector<SymptomId> remap(other.symptoms_.size(), kInvalidSymptom);
  for (SymptomId id = 0; id < static_cast<SymptomId>(other.symptoms_.size());
       ++id) {
    remap[static_cast<std::size_t>(id)] =
        symptoms_.Intern(other.symptoms_.Name(id));
  }
  entries_.reserve(entries_.size() + other.entries_.size());
  for (LogEntry e : other.entries_) {
    if (e.kind == EntryKind::kSymptom) {
      e.symptom = remap[static_cast<std::size_t>(e.symptom)];
    }
    entries_.push_back(e);
  }
}

void RecoveryLog::Write(std::ostream& os) const {
  std::string buf;
  for (const LogEntry& e : entries_) {
    AppendInt(buf, e.time);
    buf.append("\tm");
    AppendInt(buf, e.machine);
    buf.push_back('\t');
    switch (e.kind) {
      case EntryKind::kSymptom:
        buf.append("error:");
        buf.append(symptoms_.Name(e.symptom));
        break;
      case EntryKind::kAction:
        buf.append(ActionName(e.action));
        break;
      case EntryKind::kSuccess:
        buf.append("Success");
        break;
      default:
        AER_CHECK(false) << "unhandled EntryKind " << static_cast<int>(e.kind);
    }
    buf.push_back('\n');
    if (buf.size() >= kChunkBytes) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void RecoveryLog::WriteFile(const std::string& path) const {
  std::ofstream os(path);
  AER_CHECK(os.good()) << "cannot open " << path << " for writing";
  Write(os);
  AER_CHECK(os.good()) << "short write to " << path;
}

LogParseResult RecoveryLog::Read(std::istream& is, RecoveryLog& out,
                                 LogParseMode mode) {
  out = RecoveryLog();
  LogParseResult result;
  std::size_t lineno = 0;

  // Parses one line (without its '\n'); false ends a strict parse.
  const auto parse_line = [&](std::string_view line) {
    ++lineno;
    if (Trim(line).empty()) return true;

    LogEntry e;
    std::string reason;
    if (ParseFields(SplitTabs(line), out.symptoms_, e, reason)) {
      out.entries_.push_back(e);
      ++result.parsed;
      return true;
    }

    if (mode == LogParseMode::kLenient) {
      std::string repair_reason;
      if (ParseFields(RepairFields(line), out.symptoms_, e, repair_reason)) {
        out.entries_.push_back(e);
        ++result.parsed;
        ++result.repaired;
        return true;
      }
    }

    if (result.first_error_line == 0) {
      result.first_error_line = lineno;
      result.first_error = reason;
    }
    if (mode == LogParseMode::kStrict) {
      result.ok = false;
      return false;
    }
    ++result.skipped;
    return true;
  };

  // `buf` holds the unfinished line carried over from the previous chunk
  // (its first `kept` bytes), followed by the chunk just read. Lines are
  // exactly what std::getline would return: a final line without '\n'
  // counts, an empty remainder after the last '\n' does not.
  std::string buf;
  std::size_t kept = 0;
  bool sized = false;
  while (true) {
    if (buf.size() < kept + kChunkBytes) buf.resize(kept + kChunkBytes);
    is.read(buf.data() + kept, static_cast<std::streamsize>(kChunkBytes));
    const auto got = static_cast<std::size_t>(is.gcount());
    const std::string_view data(buf.data(), kept + got);
    std::size_t start = 0;
    for (std::size_t pos = data.find('\n', kept);
         pos != std::string_view::npos; pos = data.find('\n', start)) {
      if (!parse_line(data.substr(start, pos - start))) return result;
      start = pos + 1;
    }
    if (got == 0) {
      if (start < data.size()) parse_line(data.substr(start));
      return result;
    }
    if (!sized && lineno > 0) {
      // Size the entry vector once, from the bytes the stream says remain
      // (string streams and regular files report them) at the bytes per
      // line seen so far, instead of regrowing it log2(n) times. The
      // estimate never exceeds what the remaining bytes could hold.
      sized = true;
      const std::streamsize rest = is.rdbuf()->in_avail();
      if (rest > 0) {
        const std::size_t bytes_per_line =
            std::max(kMinLineBytes, start / lineno);
        out.entries_.reserve(out.entries_.size() +
                             static_cast<std::size_t>(rest) / bytes_per_line);
      }
    }
    kept = data.size() - start;
    std::memmove(buf.data(), buf.data() + start, kept);
  }
}

LogParseResult RecoveryLog::ReadFile(const std::string& path,
                                     RecoveryLog& out, LogParseMode mode) {
  std::ifstream is(path);
  if (!is.good()) {
    out = RecoveryLog();
    LogParseResult result;
    result.ok = false;
    result.first_error = "cannot open " + path;
    return result;
  }
  return Read(is, out, mode);
}

}  // namespace aer
