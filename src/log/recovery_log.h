// The recovery log: a time-ordered sequence of LogEntry plus the symptom
// intern table, with lossless text (de)serialization in the paper's
// <time, machine, description> format.
#ifndef AER_LOG_RECOVERY_LOG_H_
#define AER_LOG_RECOVERY_LOG_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "log/log_entry.h"
#include "log/symptom.h"

namespace aer {

// How Read() treats malformed lines; every caller names one. Strict is for
// everything but ingestion (a log written by this class must round-trip
// exactly, and tests depend on that); lenient is for production ingestion,
// where a truncated tail or a garbled line must cost one entry, not the
// whole file.
enum class LogParseMode {
  kStrict,   // abort on the first malformed line
  kLenient,  // skip malformed lines (after attempting repair) and count them
};

// Outcome of a (possibly lenient) parse. `ok` is false when a strict parse
// hit a malformed line or the file could not be opened; a lenient parse of a
// readable stream always has ok == true, however dirty the input.
struct LogParseResult {
  bool ok = true;
  std::size_t parsed = 0;    // entries appended to the output log
  std::size_t repaired = 0;  // subset of `parsed` that needed repair
  std::size_t skipped = 0;   // malformed lines dropped (lenient only)
  // Line number (1-based) and description of the first malformed line, for
  // operator-facing error messages. Set even when lenient skips the line.
  std::size_t first_error_line = 0;
  std::string first_error;
};

class RecoveryLog {
 public:
  RecoveryLog() = default;

  // Adopts `entries`, already in SortByTime's order, together with the
  // table their symptom ids index.
  RecoveryLog(std::vector<LogEntry> entries, SymptomTable symptoms)
      : entries_(std::move(entries)), symptoms_(std::move(symptoms)) {}

  void Append(const LogEntry& entry) { entries_.push_back(entry); }

  // Stable sort by (time, machine); entries of one machine at equal times
  // keep insertion order so symptom-then-action sequences survive.
  void SortByTime();

  const std::vector<LogEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  SymptomTable& symptoms() { return symptoms_; }
  const SymptomTable& symptoms() const { return symptoms_; }

  // Appends all of `other`'s entries, re-interning its symptom names into
  // this log's table (ids are remapped). Use for multi-period training:
  // merge last quarter's log into the accumulated history, re-sort, retrain.
  void Merge(const RecoveryLog& other);

  // Text serialization: one entry per line, "<time>\t<machine>\t<desc>".
  void Write(std::ostream& os) const;
  void WriteFile(const std::string& path) const;

  // Parses a log written by Write(). Strict mode aborts the parse on the
  // first malformed line; lenient mode first attempts line repair (stray CR,
  // space-for-tab separators, trailing empty fields), then skips what still
  // does not parse, counting both. Symptom names are re-interned, so
  // round-tripping preserves entry equality up to symptom-id renumbering;
  // ids are identical when the log was written by this class (first-seen
  // order).
  static LogParseResult Read(std::istream& is, RecoveryLog& out,
                             LogParseMode mode);
  static LogParseResult ReadFile(const std::string& path, RecoveryLog& out,
                                 LogParseMode mode);

 private:
  std::vector<LogEntry> entries_;
  SymptomTable symptoms_;
};

}  // namespace aer

#endif  // AER_LOG_RECOVERY_LOG_H_
