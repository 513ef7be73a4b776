// Segmentation of a recovery log into recovery processes.
//
// Section 4.1: "the logs can be divided into an ensemble of recovery
// processes. The processes start with the advent of a new error, experience a
// series of repair actions, and end with successful recovery."
//
// Per machine, a process opens at the first symptom observed while the
// machine is healthy and closes at the next Success entry. The cost of an
// action attempt is the wall time from its initiation to the next action (or
// to Success for the final attempt) — this includes the time spent watching
// the machine to observe the recovery effect, which the paper notes is not
// negligible even for cheap actions.
//
// Segmentation runs in two phases, so the open/close/orphan rule lives in one
// place. Phase 1, IndexProcesses, walks the entries in (time, machine) order
// once and records one ProcessSpan per opened process, in open order (its
// opening and closing entry and its symptom and attempt counts), plus the
// span that owns each entry. A log not already in that order is
// stable-sorted into a copy the index keeps. Phase 2, SegmentIntoProcesses,
// builds every closed process in open order, which is (start time, machine)
// order with ties in close order, reserves its vectors at their exact sizes
// and fills them in one more walk over the entries. BuildLogReport reads
// only phase 1.
#ifndef AER_LOG_RECOVERY_PROCESS_H_
#define AER_LOG_RECOVERY_PROCESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_time.h"
#include "log/recovery_log.h"

namespace aer {

struct SymptomEvent {
  SimTime time = 0;
  SymptomId symptom = kInvalidSymptom;

  friend bool operator==(const SymptomEvent&, const SymptomEvent&) = default;
};

struct ActionAttempt {
  RepairAction action = RepairAction::kTryNop;
  SimTime start = 0;
  // Wall time from initiation to the next action / Success.
  SimTime cost = 0;
  // True only for the attempt after which the machine reported healthy.
  bool cured = false;

  friend bool operator==(const ActionAttempt&, const ActionAttempt&) = default;
};

struct SegmentationResult;

class RecoveryProcess {
 public:
  RecoveryProcess(MachineId machine, std::vector<SymptomEvent> symptoms,
                  std::vector<ActionAttempt> attempts, SimTime success_time);

  MachineId machine() const { return machine_; }
  const std::vector<SymptomEvent>& symptoms() const { return symptoms_; }
  const std::vector<ActionAttempt>& attempts() const { return attempts_; }
  SimTime success_time() const { return success_time_; }

  // The process opens at its first symptom.
  SimTime start_time() const { return symptoms_.front().time; }

  // Section 3.1: the error type of a process is its initial symptom.
  SymptomId initial_symptom() const { return symptoms_.front().symptom; }

  // Machine downtime contributed by this process (the paper's cost metric).
  SimTime downtime() const { return success_time_ - start_time(); }

  // Time from first symptom to first repair action (detection + scheduling
  // latency); equals downtime for processes with no actions.
  SimTime detection_delay() const;

  // The action that closed the process, i.e. the last attempt.
  RepairAction final_action() const;

  // Replaces `out` with the distinct symptoms, sorted ascending (the
  // "transaction" fed to m-pattern mining), reusing its capacity.
  void DistinctSymptoms(std::vector<SymptomId>& out) const;

 private:
  // Segmentation builds each process empty, reserved at its exact sizes, and
  // fills it in its second walk; the opening symptom and a success time no
  // earlier than it hold by construction.
  friend SegmentationResult SegmentIntoProcesses(const RecoveryLog& log);
  RecoveryProcess(MachineId machine, SimTime success_time,
                  std::size_t symptoms, std::size_t attempts);

  MachineId machine_;
  std::vector<SymptomEvent> symptoms_;
  std::vector<ActionAttempt> attempts_;
  SimTime success_time_;
};

// One opened process as phase 1 sees it. Indices are into
// ProcessIndex::entries.
struct ProcessSpan {
  static constexpr std::uint32_t kStillOpen = UINT32_MAX;

  std::uint32_t open = 0;            // the opening symptom entry
  std::uint32_t close = kStillOpen;  // the closing Success entry
  std::uint32_t symptoms = 0;
  std::uint32_t attempts = 0;

  bool closed() const { return close != kStillOpen; }
};

// Phase 1's output. Move-only: `entries` may point into `sorted`.
struct ProcessIndex {
  // owner[i] of an Action or Success entry no process owns.
  static constexpr std::uint32_t kOrphan = UINT32_MAX;

  ProcessIndex() = default;
  ProcessIndex(ProcessIndex&&) = default;
  ProcessIndex& operator=(ProcessIndex&&) = default;
  ProcessIndex(const ProcessIndex&) = delete;
  ProcessIndex& operator=(const ProcessIndex&) = delete;

  // The log's entries in (time, machine) order: the log's own vector, or
  // `sorted` when the log was not in that order. Valid while the log lives.
  std::span<const LogEntry> entries;
  std::vector<LogEntry> sorted;
  // Every opened process, in open order.
  std::vector<ProcessSpan> spans;
  // Per entry of `entries`: the index of the span that owns it, or kOrphan.
  std::vector<std::uint32_t> owner;
  // Spans still open when the log ended.
  int incomplete = 0;
  // Action/Success entries with no open process.
  int orphan_entries = 0;
};

// Phase 1: applies the open/close/orphan rule to the log once.
ProcessIndex IndexProcesses(const RecoveryLog& log);

struct SegmentationResult {
  // Ordered by process start time (ties: machine id).
  std::vector<RecoveryProcess> processes;
  // Processes still open when the log ended (dropped).
  int incomplete = 0;
  // Action/Success entries with no open process (dropped).
  int orphan_entries = 0;
};

// Phase 2: splits the log into recovery processes. The log need not be
// pre-sorted.
SegmentationResult SegmentIntoProcesses(const RecoveryLog& log);

}  // namespace aer

#endif  // AER_LOG_RECOVERY_PROCESS_H_
