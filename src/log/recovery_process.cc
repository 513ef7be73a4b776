#include "log/recovery_process.h"

#include <algorithm>

#include "common/check.h"
#include "log/id_table.h"

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

RecoveryProcess::RecoveryProcess(MachineId machine, SimTime success_time,
                                 std::size_t symptoms, std::size_t attempts)
    : machine_(machine), success_time_(success_time) {
  symptoms_.reserve(symptoms);
  attempts_.reserve(attempts);
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

bool EntryBefore(const LogEntry& a, const LogEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.machine < b.machine;
}

}  // namespace

ProcessIndex IndexProcesses(const RecoveryLog& log) {
  ProcessIndex index;
  // Scan in (time, machine) order. Logs from Write() and the simulators are
  // already in that order; only an unsorted log pays for a sorted copy.
  index.entries = log.entries();
  if (!std::is_sorted(index.entries.begin(), index.entries.end(),
                      EntryBefore)) {
    index.sorted = log.entries();
    std::stable_sort(index.sorted.begin(), index.sorted.end(), EntryBefore);
    index.entries = index.sorted;
  }
  const std::span<const LogEntry> entries = index.entries;
  AER_CHECK_LT(entries.size(), std::size_t{ProcessSpan::kStillOpen});

  // Opens happen in (time, machine) order, which is the (start time,
  // machine) order SegmentationResult promises; a machine reopening at the
  // same second closed its previous process first, so ties keep close order.
  index.owner.resize(entries.size());
  IdTable open(ProcessSpan::kStillOpen);  // each machine's open span
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    std::uint32_t& machine_span = open[e.machine];
    std::uint32_t s = machine_span;
    if (s == ProcessSpan::kStillOpen) {
      if (e.kind != EntryKind::kSymptom) {
        ++index.orphan_entries;
        index.owner[i] = ProcessIndex::kOrphan;
        continue;
      }
      s = static_cast<std::uint32_t>(index.spans.size());
      index.spans.push_back({.open = i});
    }
    // Branch-free on the entry kind, which the walk cannot predict.
    ProcessSpan& span = index.spans[s];
    span.symptoms += e.kind == EntryKind::kSymptom;
    span.attempts += e.kind == EntryKind::kAction;
    const bool success = e.kind == EntryKind::kSuccess;
    span.close = success ? i : span.close;
    machine_span = success ? ProcessSpan::kStillOpen : s;
    index.owner[i] = s;
  }
  for (const ProcessSpan& span : index.spans) {
    if (!span.closed()) ++index.incomplete;
  }
  return index;
}

SegmentationResult SegmentIntoProcesses(const RecoveryLog& log) {
  const ProcessIndex index = IndexProcesses(log);
  const std::span<const LogEntry> entries = index.entries;

  // Every closed process, in open order, with its vectors reserved at their
  // exact sizes; process_of maps a span to its process.
  constexpr std::uint32_t kNoProcess = UINT32_MAX;
  SegmentationResult result;
  result.incomplete = index.incomplete;
  result.orphan_entries = index.orphan_entries;
  result.processes.reserve(index.spans.size() -
                           static_cast<std::size_t>(index.incomplete));
  std::vector<std::uint32_t> process_of(index.spans.size(), kNoProcess);
  for (std::size_t s = 0; s < index.spans.size(); ++s) {
    const ProcessSpan& span = index.spans[s];
    if (!span.closed()) continue;
    process_of[s] = static_cast<std::uint32_t>(result.processes.size());
    result.processes.push_back(RecoveryProcess(
        entries[span.open].machine, entries[span.close].time, span.symptoms,
        span.attempts));
  }

  // Fill them in one more walk.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::uint32_t s = index.owner[i];
    if (s == ProcessIndex::kOrphan) continue;
    const std::uint32_t r = process_of[s];
    if (r == kNoProcess) continue;
    const LogEntry& e = entries[i];
    RecoveryProcess& p = result.processes[r];
    if (e.kind == EntryKind::kSymptom) {
      p.symptoms_.push_back({e.time, e.symptom});
      continue;
    }
    // An action or the closing Success ends the attempt before it.
    if (!p.attempts_.empty()) {
      ActionAttempt& last = p.attempts_.back();
      last.cost = e.time - last.start;
    }
    if (e.kind == EntryKind::kAction) {
      p.attempts_.push_back({e.action, e.time, /*cost=*/0, /*cured=*/false});
    } else if (!p.attempts_.empty()) {
      p.attempts_.back().cured = true;
    }
  }
  return result;
}

}  // namespace aer
