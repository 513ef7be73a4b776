// RecoveryManager — the online automatic-recovery framework (the upper half
// of Figure 1): event monitoring feeds symptoms in, fault detection requests
// a repair decision, error recovery consults the pluggable policy and
// enforces the N-cap, and everything observable is appended to a recovery
// log (the input of the next offline training round — this closes the
// paper's feedback loop and is what lets the system "adapt to the change of
// the environment without human involvement").
//
// The manager is deliberately transport-agnostic: callers (a production
// event bus, or the cluster simulator in the examples) push timestamped
// events and execute the returned actions.
//
// Production telemetry is dirty, so the manager tolerates it rather than
// trusting it (docs/ROBUSTNESS.md):
//   - out-of-order events are clamped to the process's last seen time;
//   - duplicate symptom reports and stale/duplicate action results are
//     absorbed and counted, never fatal;
//   - an in-flight action that outlives its (backoff-scaled) deadline is
//     treated as failed via PollTimeouts(), advancing toward the N-cap so a
//     hung repair still escalates;
//   - machines that reopen processes too often inside a window are
//     flap-quarantined: their processes go straight to manual repair
//     instead of burning retries on a machine that lies about its health;
//   - per-machine history is evicted after a retention window, so a fleet
//     of mostly-healthy machines cannot grow the manager's memory without
//     bound.
#ifndef AER_CORE_RECOVERY_MANAGER_H_
#define AER_CORE_RECOVERY_MANAGER_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/policy.h"
#include "log/recovery_log.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer {

struct RecoveryManagerConfig {
  // The paper's N: the last permitted action of a process is manual repair.
  int max_actions_per_process = 20;

  // Per-action result deadline; 0 disables timeout handling. An in-flight
  // action whose result has not arrived within
  //   action_timeout * timeout_backoff^(timeouts already hit in process)
  // is declared failed by PollTimeouts(): the policy sees a failure outcome,
  // the action still counts toward the N-cap, and the caller should request
  // the next action (which retries or escalates per the policy).
  SimTime action_timeout = 0;
  double timeout_backoff = 2.0;

  // Flap quarantine: a machine that opens more than `flap_threshold`
  // recovery processes within `flap_window` is quarantined — subsequent
  // decisions for it bypass the policy and go straight to RMA. 0 disables.
  int flap_threshold = 0;
  SimTime flap_window = 6 * kHour;

  // Per-machine history (previous recovery end, recent process opens) is
  // dropped once it is older than this; bounds memory on large fleets.
  SimTime history_retention = 30 * kDay;
};

// Portable image of one open recovery process — what a coordinated control
// plane (src/ctrl/) replicates to follower coordinators so a leader takeover
// *resumes* in-flight recoveries instead of restarting them: the tried
// actions keep counting toward the N-cap and the policy keeps seeing the
// full attempt history.
struct OpenProcessSnapshot {
  MachineId machine = 0;
  SimTime start = 0;
  std::string symptom;  // initiating symptom, by stable name
  std::vector<RepairAction> tried;
  int timeouts = 0;
  bool quarantined = false;
  SimTime last_event_time = 0;
  // Distributed trace of the process (obs/trace_context.h); replicated so
  // the adopting leader continues the same causal trace across takeover.
  obs::TraceId trace_id = obs::kNoTrace;

  friend bool operator==(const OpenProcessSnapshot&,
                         const OpenProcessSnapshot&) = default;
};

class RecoveryManager {
 public:
  // `policy` must outlive the manager.
  RecoveryManager(RecoveryPolicy& policy, RecoveryManagerConfig config = {});

  // Attaches observability sinks (either may be null; both must outlive the
  // manager). With a collector set, the timeout of a traced process's
  // in-flight action becomes a kTimeout record. With a registry set, the
  // Stats counters are mirrored into the aer_recovery_* metrics
  // (docs/OBSERVABILITY.md).
  void SetObservers(obs::TraceCollector* traces,
                    obs::MetricsRegistry* metrics);

  // Event monitoring: a symptom was observed on a machine. Opens a recovery
  // process if none is active; records the symptom either way. Tolerates
  // out-of-order and duplicate reports (see Stats). `trace` is the symptom's
  // causal context: it binds the opened process to the distributed trace;
  // an inactive context leaves the process untraced.
  void OnSymptom(SimTime time, MachineId machine, std::string_view symptom,
                 obs::TraceContext trace = {});

  // Fault detection: the machine needs (another) repair action now. Returns
  // the action the caller must execute, or nullopt if no process is open.
  // Records the action and enforces the N-cap (the N-th action is RMA).
  // Re-requesting while the previous action is still in flight (and not
  // timed out) returns that action again without recording a duplicate.
  std::optional<RepairAction> OnRecoveryNeeded(SimTime time,
                                               MachineId machine);

  // Result monitoring: the outcome of the last action. `healthy` closes the
  // process (records Success); otherwise the caller should follow up with
  // OnRecoveryNeeded. A result with no matching open process or in-flight
  // action (duplicate delivery, result after timeout) is counted and
  // ignored.
  void OnActionResult(SimTime time, MachineId machine, bool healthy);

  // Declares every in-flight action whose deadline is at or before `now`
  // failed (policy outcome, timeout stats, N-cap advancement) and returns
  // the affected machines in ascending id order; the caller should invoke
  // OnRecoveryNeeded for each. No-op unless config.action_timeout > 0.
  std::vector<MachineId> PollTimeouts(SimTime now);

  bool HasOpenProcess(MachineId machine) const;
  std::size_t open_process_count() const { return open_.size(); }

  // Actions recorded so far in the machine's open process (0 if none).
  // Control-plane callers use this as the attempt index when correlating
  // dispatched actions with their results across leader changes.
  int ActionsTried(MachineId machine) const;

  // Distributed trace id of the machine's open process (kNoTrace if none or
  // untraced). Control-plane callers stamp it onto outgoing dispatches.
  obs::TraceId TraceOf(MachineId machine) const;

  // Snapshots every open process in ascending machine-id order — the
  // replication payload a leader coordinator streams to its followers.
  std::vector<OpenProcessSnapshot> ExportOpenProcesses() const;

  // Takeover resume: re-creates an open process from a replicated snapshot.
  // Returns false (and changes nothing) if the machine already has an open
  // process. The adopted attempt history counts toward the N-cap but is not
  // re-logged or re-reported to the policy — the previous leader already did
  // both; in-flight state resets so the next OnRecoveryNeeded issues the
  // *next* action. Adoption bypasses flap tracking: the reopen was a
  // coordinator handover, not machine behavior.
  bool AdoptProcess(SimTime now, const OpenProcessSnapshot& snapshot);

  // True while the machine's currently open process was opened under flap
  // quarantine (its reopen rate exceeded the threshold inside the window).
  bool IsQuarantined(MachineId machine) const;

  // Number of machines with retained history (for eviction regression
  // tests and capacity monitoring).
  std::size_t history_size() const { return history_.size(); }

  // The log of everything this manager observed and decided; feed it back
  // into PolicyGenerator to close the loop.
  const RecoveryLog& log() const { return log_; }

  struct Stats {
    std::int64_t processes_completed = 0;
    std::int64_t actions_taken = 0;
    std::int64_t manual_repairs_forced = 0;  // N-cap hits
    SimTime total_downtime = 0;
    // Dirty-telemetry counters.
    std::int64_t actions_timed_out = 0;
    std::int64_t stale_results_ignored = 0;
    std::int64_t out_of_order_events = 0;
    std::int64_t duplicate_symptoms = 0;
    std::int64_t duplicate_recovery_requests = 0;
    std::int64_t flap_quarantines = 0;  // processes opened under quarantine
    std::int64_t history_evictions = 0;
    std::int64_t processes_adopted = 0;  // takeover resumes (AdoptProcess)

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct OpenProcess {
    SimTime start = 0;
    SymptomId initial_symptom = kInvalidSymptom;
    std::vector<RepairAction> tried;
    SimTime last_recovery_end = -1;
    SimTime last_action_start = -1;
    SimTime last_event_time = 0;  // monotonic clamp for dirty timestamps
    SymptomId last_symptom = kInvalidSymptom;  // dedupe of retransmissions
    SimTime last_symptom_time = -1;
    bool action_in_flight = false;
    int timeouts = 0;  // timeouts hit so far (drives backoff)
    bool quarantined = false;
    obs::TraceId trace = obs::kNoTrace;  // distributed trace id
  };

  struct MachineHistory {
    SimTime last_recovery_end = -1;
    // Recent process-open times inside the flap window, oldest first.
    std::vector<SimTime> recent_opens;
  };

  // Clamps a possibly out-of-order timestamp against the process's last
  // seen time and advances the watermark.
  SimTime ClampTime(OpenProcess& process, SimTime time);

  // Deadline of the currently in-flight action.
  SimTime ActionDeadline(const OpenProcess& process) const;

  // Reports the in-flight action of `process` as failed to the policy.
  void ReportOutcome(MachineId machine, OpenProcess& process, SimTime time,
                     bool cured);

  // Drops history entries older than config.history_retention.
  void MaybeEvictHistory(SimTime now);

  // Declares the in-flight action timed out: reports the failure to the
  // policy, records it, and advances the backoff/N-cap state.
  void ExpireInFlightAction(MachineId machine, OpenProcess& process);

  RecoveryPolicy& policy_;
  RecoveryManagerConfig config_;
  RecoveryLog log_;
  std::unordered_map<MachineId, OpenProcess> open_;
  std::unordered_map<MachineId, MachineHistory> history_;
  int closes_since_sweep_ = 0;
  Stats stats_;

  obs::TraceCollector* traces_ = nullptr;
  // Cached metric handles (resolved once in SetObservers) so the hot path
  // never takes the registry lock; all null when no registry is attached.
  struct ObsMetrics {
    obs::Counter* processes = nullptr;
    obs::Counter* actions = nullptr;
    obs::Counter* manual_forced = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* stale_results = nullptr;
    obs::Counter* out_of_order = nullptr;
    obs::Counter* duplicate_symptoms = nullptr;
    obs::Counter* duplicate_requests = nullptr;
    obs::Counter* flap_quarantines = nullptr;
    obs::Counter* history_evictions = nullptr;
    obs::Counter* adopted = nullptr;
    obs::Histogram* downtime = nullptr;
    obs::Histogram* actions_per_process = nullptr;
  };
  ObsMetrics obs_;
};

}  // namespace aer

#endif  // AER_CORE_RECOVERY_MANAGER_H_
