#include "log/recovery_process.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/check.h"

namespace aer {

RecoveryProcess::RecoveryProcess(MachineId machine,
                                 std::vector<SymptomEvent> symptoms,
                                 std::vector<ActionAttempt> attempts,
                                 SimTime success_time)
    : machine_(machine),
      symptoms_(std::move(symptoms)),
      attempts_(std::move(attempts)),
      success_time_(success_time) {
  AER_CHECK(!symptoms_.empty());
  AER_CHECK_GE(success_time_, symptoms_.front().time);
}

SimTime RecoveryProcess::detection_delay() const {
  if (attempts_.empty()) return downtime();
  return attempts_.front().start - start_time();
}

RepairAction RecoveryProcess::final_action() const {
  AER_CHECK(!attempts_.empty());
  return attempts_.back().action;
}

void RecoveryProcess::DistinctSymptoms(std::vector<SymptomId>& out) const {
  out.clear();
  for (const SymptomEvent& e : symptoms_) out.push_back(e.symptom);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

namespace {

// Per-machine accumulator for the currently open process.
struct OpenProcess {
  std::vector<SymptomEvent> symptoms;
  std::vector<ActionAttempt> attempts;
  // Index of this process's slot in open order (valid while open).
  std::size_t slot = 0;
  bool open = false;
};

bool EntryBefore(const LogEntry& a, const LogEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.machine < b.machine;
}

}  // namespace

SegmentationResult SegmentIntoProcesses(const RecoveryLog& log) {
  // Scan in (time, machine) order. Logs from Write() and the simulators are
  // already in that order; only an unsorted log pays for a sorted copy.
  std::vector<LogEntry> sorted;
  const std::vector<LogEntry>* entries = &log.entries();
  if (!std::is_sorted(entries->begin(), entries->end(), EntryBefore)) {
    sorted = *entries;
    std::stable_sort(sorted.begin(), sorted.end(), EntryBefore);
    entries = &sorted;
  }

  // One slot per opened process, in open order. Opens happen in (time,
  // machine) order, which is the (start time, machine) order the result
  // promises; a machine reopening at the same second closed its previous
  // process first, so ties also keep close order. Processes still open at
  // the end leave their slot empty.
  std::vector<std::optional<RecoveryProcess>> slots;
  SegmentationResult result;
  std::unordered_map<MachineId, OpenProcess> open;

  const auto close_attempt = [](OpenProcess& p, SimTime now) {
    if (!p.attempts.empty()) {
      ActionAttempt& last = p.attempts.back();
      last.cost = now - last.start;
    }
  };

  std::size_t closed = 0;
  for (const LogEntry& e : *entries) {
    OpenProcess& p = open[e.machine];
    switch (e.kind) {
      case EntryKind::kSymptom:
        if (!p.open) {
          p.open = true;
          p.symptoms.clear();
          p.attempts.clear();
          p.slot = slots.size();
          slots.emplace_back();
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
        slots[p.slot].emplace(e.machine, std::move(p.symptoms),
                              std::move(p.attempts), e.time);
        ++closed;
        p = OpenProcess{};
        break;
    }
  }

  result.incomplete = static_cast<int>(slots.size() - closed);
  result.processes.reserve(closed);
  for (std::optional<RecoveryProcess>& slot : slots) {
    if (slot.has_value()) result.processes.push_back(std::move(*slot));
  }
  return result;
}

}  // namespace aer
