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
#ifndef AER_LOG_RECOVERY_PROCESS_H_
#define AER_LOG_RECOVERY_PROCESS_H_

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
  MachineId machine_;
  std::vector<SymptomEvent> symptoms_;
  std::vector<ActionAttempt> attempts_;
  SimTime success_time_;
};

struct SegmentationResult {
  // Ordered by process start time (ties: machine id).
  std::vector<RecoveryProcess> processes;
  // Processes still open when the log ended (dropped).
  int incomplete = 0;
  // Action/Success entries with no open process (dropped).
  int orphan_entries = 0;
};

// Splits the log into recovery processes. The log need not be pre-sorted.
SegmentationResult SegmentIntoProcesses(const RecoveryLog& log);

}  // namespace aer

#endif  // AER_LOG_RECOVERY_PROCESS_H_
