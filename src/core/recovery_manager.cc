#include "core/recovery_manager.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/profiler.h"
#include "log/action.h"

namespace aer {

RecoveryManager::RecoveryManager(RecoveryPolicy& policy,
                                 RecoveryManagerConfig config)
    : policy_(policy), config_(config) {
  AER_CHECK_GE(config_.max_actions_per_process, 1);
  AER_CHECK_GE(config_.action_timeout, 0);
  AER_CHECK_GE(config_.timeout_backoff, 1.0);
  AER_CHECK_GE(config_.flap_threshold, 0);
  AER_CHECK_GT(config_.flap_window, 0);
  AER_CHECK_GT(config_.history_retention, 0);
}

void RecoveryManager::SetObservers(obs::TraceCollector* traces,
                                   obs::MetricsRegistry* metrics) {
  traces_ = traces;
  if (metrics == nullptr) {
    obs_ = ObsMetrics{};
    return;
  }
  obs_.processes = &metrics->GetCounter("aer_recovery_processes_total");
  obs_.actions = &metrics->GetCounter("aer_recovery_actions_total");
  obs_.manual_forced =
      &metrics->GetCounter("aer_recovery_manual_forced_total");
  obs_.timeouts = &metrics->GetCounter("aer_recovery_timeouts_total");
  obs_.stale_results =
      &metrics->GetCounter("aer_recovery_stale_results_total");
  obs_.out_of_order = &metrics->GetCounter("aer_recovery_out_of_order_total");
  obs_.duplicate_symptoms =
      &metrics->GetCounter("aer_recovery_duplicate_symptoms_total");
  obs_.duplicate_requests =
      &metrics->GetCounter("aer_recovery_duplicate_requests_total");
  obs_.flap_quarantines =
      &metrics->GetCounter("aer_recovery_flap_quarantines_total");
  obs_.history_evictions =
      &metrics->GetCounter("aer_recovery_history_evictions_total");
  obs_.adopted = &metrics->GetCounter("aer_recovery_processes_adopted_total");
  obs_.downtime = &metrics->GetHistogram("aer_recovery_downtime_seconds");
  obs_.actions_per_process = &metrics->GetHistogram(
      "aer_recovery_actions_per_process", /*base=*/1.0, /*growth=*/2.0,
      /*bucket_count=*/8);
}

SimTime RecoveryManager::ClampTime(OpenProcess& process, SimTime time) {
  if (time < process.last_event_time) {
    ++stats_.out_of_order_events;
    if (obs_.out_of_order) obs_.out_of_order->Inc();
    return process.last_event_time;
  }
  process.last_event_time = time;
  return time;
}

SimTime RecoveryManager::ActionDeadline(const OpenProcess& process) const {
  // Backoff saturates instead of overflowing: past ~2^30x the base timeout
  // the distinction between deadlines is academic.
  double scale = 1.0;
  for (int i = 0; i < std::min(process.timeouts, 30); ++i) {
    scale *= config_.timeout_backoff;
  }
  return process.last_action_start +
         static_cast<SimTime>(static_cast<double>(config_.action_timeout) *
                              scale);
}

void RecoveryManager::ReportOutcome(MachineId machine, OpenProcess& process,
                                    SimTime time, bool cured) {
  if (process.tried.empty() || process.last_action_start < 0) return;
  RecoveryContext ctx;
  ctx.machine = machine;
  ctx.initial_symptom = process.initial_symptom;
  ctx.initial_symptom_name = log_.symptoms().Name(process.initial_symptom);
  ctx.tried = std::span<const RepairAction>(process.tried.data(),
                                            process.tried.size() - 1);
  ctx.process_start = process.start;
  ctx.now = time;
  ctx.last_recovery_end = process.last_recovery_end;
  policy_.OnActionOutcome(ctx, process.tried.back(),
                          time - process.last_action_start, cured);
}

void RecoveryManager::OnSymptom(SimTime time, MachineId machine,
                                std::string_view symptom,
                                obs::TraceContext trace) {
  AER_PROFILE_SCOPE("rm_on_symptom");
  const SymptomId id = log_.symptoms().Intern(symptom);
  const auto it = open_.find(machine);
  if (it != open_.end()) {
    OpenProcess& process = it->second;
    // A late-arriving context for an already-open process (e.g. the first
    // traced symptom after adoption of an untraced snapshot) still binds.
    if (process.trace == obs::kNoTrace && trace.active()) {
      process.trace = trace.trace_id;
    }
    const SimTime seen = ClampTime(process, time);
    // A monitoring retransmission: same symptom at the same (clamped)
    // instant adds no information — absorb it instead of bloating the log.
    if (id == process.last_symptom && seen == process.last_symptom_time) {
      ++stats_.duplicate_symptoms;
      if (obs_.duplicate_symptoms) obs_.duplicate_symptoms->Inc();
      return;
    }
    process.last_symptom = id;
    process.last_symptom_time = seen;
    log_.Append(LogEntry::Symptom(seen, machine, id));
    return;
  }

  OpenProcess process;
  process.start = time;
  process.last_event_time = time;
  process.initial_symptom = id;
  process.last_symptom = id;
  process.last_symptom_time = time;
  process.trace = trace.trace_id;

  MachineHistory& history = history_[machine];
  process.last_recovery_end = history.last_recovery_end;
  // Flap tracking: keep only opens inside the window, then record this one.
  std::erase_if(history.recent_opens, [&](SimTime open_time) {
    return open_time <= time - config_.flap_window;
  });
  history.recent_opens.push_back(time);
  if (config_.flap_threshold > 0 &&
      static_cast<int>(history.recent_opens.size()) > config_.flap_threshold) {
    process.quarantined = true;
    ++stats_.flap_quarantines;
    if (obs_.flap_quarantines) obs_.flap_quarantines->Inc();
  }

  if (obs_.processes) obs_.processes->Inc();

  log_.Append(LogEntry::Symptom(time, machine, id));
  open_.emplace(machine, std::move(process));
}

std::optional<RepairAction> RecoveryManager::OnRecoveryNeeded(
    SimTime time, MachineId machine) {
  AER_PROFILE_SCOPE("rm_on_recovery_needed");
  const auto it = open_.find(machine);
  if (it == open_.end()) return std::nullopt;
  OpenProcess& process = it->second;
  const SimTime now = ClampTime(process, time);

  if (process.action_in_flight) {
    if (config_.action_timeout > 0 && now >= ActionDeadline(process)) {
      // The pending action is overdue: declare it failed and fall through
      // to choose the next (possibly escalated) action.
      ExpireInFlightAction(machine, process);
    } else {
      // Duplicate fault-detection request while the action is still being
      // executed: repeat the standing decision instead of double-acting.
      ++stats_.duplicate_recovery_requests;
      if (obs_.duplicate_requests) obs_.duplicate_requests->Inc();
      return process.tried.back();
    }
  }

  RepairAction action;
  if (process.quarantined) {
    // Flapping machines have demonstrated that their health reports cannot
    // be trusted; stop burning repair attempts and hand them to a human.
    action = RepairAction::kRma;
  } else if (static_cast<int>(process.tried.size()) >=
             config_.max_actions_per_process - 1) {
    action = RepairAction::kRma;
    ++stats_.manual_repairs_forced;
    if (obs_.manual_forced) obs_.manual_forced->Inc();
  } else {
    RecoveryContext ctx;
    ctx.machine = machine;
    ctx.initial_symptom = process.initial_symptom;
    ctx.initial_symptom_name = log_.symptoms().Name(process.initial_symptom);
    ctx.tried = process.tried;
    ctx.process_start = process.start;
    ctx.now = now;
    ctx.last_recovery_end = process.last_recovery_end;
    action = policy_.ChooseAction(ctx);
  }

  process.tried.push_back(action);
  process.last_action_start = now;
  process.action_in_flight = true;
  log_.Append(LogEntry::Action(now, machine, action));
  ++stats_.actions_taken;
  if (obs_.actions) obs_.actions->Inc();
  return action;
}

void RecoveryManager::OnActionResult(SimTime time, MachineId machine,
                                     bool healthy) {
  AER_PROFILE_SCOPE("rm_on_action_result");
  const auto it = open_.find(machine);
  if (it == open_.end()) {
    // Result for a process that no longer exists: a duplicate delivery or a
    // report from a decommissioned flow. Dirty telemetry, not a bug.
    ++stats_.stale_results_ignored;
    if (obs_.stale_results) obs_.stale_results->Inc();
    return;
  }
  OpenProcess& process = it->second;
  const SimTime now = ClampTime(process, time);

  if (process.action_in_flight) {
    // Result monitoring: feed the outcome back to the policy.
    ReportOutcome(machine, process, now, healthy);
    process.action_in_flight = false;
  } else if (!healthy) {
    // Failure report with nothing pending (late arrival after a timeout, or
    // a duplicate): the process state already reflects a failure.
    ++stats_.stale_results_ignored;
    if (obs_.stale_results) obs_.stale_results->Inc();
    return;
  }
  // A healthy report with nothing pending still closes the process: the
  // machine recovered (late result or spontaneously) and holding the
  // process open would leak it.

  if (!healthy) return;  // caller drives the next OnRecoveryNeeded
  log_.Append(LogEntry::Success(now, machine));
  ++stats_.processes_completed;
  stats_.total_downtime += now - process.start;
  if (obs_.downtime) {
    obs_.downtime->Observe(static_cast<double>(now - process.start));
  }
  if (obs_.actions_per_process) {
    obs_.actions_per_process->Observe(
        static_cast<double>(process.tried.size()));
  }
  history_[machine].last_recovery_end = now;
  open_.erase(it);
  if (++closes_since_sweep_ >= 64) MaybeEvictHistory(now);
}

std::vector<MachineId> RecoveryManager::PollTimeouts(SimTime now) {
  AER_PROFILE_SCOPE("rm_poll_timeouts");
  std::vector<MachineId> timed_out;
  if (config_.action_timeout <= 0) return timed_out;
  for (auto& [machine, process] : open_) {
    if (process.action_in_flight && now >= ActionDeadline(process)) {
      timed_out.push_back(machine);
    }
  }
  // open_ iteration order is unspecified; sort for deterministic replay.
  std::sort(timed_out.begin(), timed_out.end());
  for (const MachineId machine : timed_out) {
    ExpireInFlightAction(machine, open_[machine]);
  }
  return timed_out;
}

void RecoveryManager::ExpireInFlightAction(MachineId machine,
                                           OpenProcess& process) {
  const SimTime deadline = ActionDeadline(process);
  ReportOutcome(machine, process, deadline, /*cured=*/false);
  if (traces_ && process.trace != obs::kNoTrace && !process.tried.empty()) {
    obs::TraceRecord record;
    record.trace_id = process.trace;
    record.time = deadline;
    record.kind = obs::TraceEventKind::kTimeout;
    record.machine = machine;
    record.attempt = static_cast<int>(process.tried.size()) - 1;
    record.action = ActionIndex(process.tried.back());
    traces_->Record(std::move(record));
  }
  process.action_in_flight = false;
  process.last_event_time = std::max(process.last_event_time, deadline);
  ++process.timeouts;
  ++stats_.actions_timed_out;
  if (obs_.timeouts) obs_.timeouts->Inc();
}

void RecoveryManager::MaybeEvictHistory(SimTime now) {
  closes_since_sweep_ = 0;
  const SimTime horizon = now - config_.history_retention;
  for (auto it = history_.begin(); it != history_.end();) {
    MachineHistory& history = it->second;
    std::erase_if(history.recent_opens, [&](SimTime open_time) {
      return open_time <= now - config_.flap_window;
    });
    const bool stale = history.last_recovery_end < horizon &&
                       history.recent_opens.empty() &&
                       !open_.contains(it->first);
    if (stale) {
      it = history_.erase(it);
      ++stats_.history_evictions;
      if (obs_.history_evictions) obs_.history_evictions->Inc();
    } else {
      ++it;
    }
  }
}

bool RecoveryManager::HasOpenProcess(MachineId machine) const {
  return open_.contains(machine);
}

int RecoveryManager::ActionsTried(MachineId machine) const {
  const auto it = open_.find(machine);
  return it == open_.end() ? 0 : static_cast<int>(it->second.tried.size());
}

obs::TraceId RecoveryManager::TraceOf(MachineId machine) const {
  const auto it = open_.find(machine);
  return it == open_.end() ? obs::kNoTrace : it->second.trace;
}

std::vector<OpenProcessSnapshot> RecoveryManager::ExportOpenProcesses()
    const {
  std::vector<OpenProcessSnapshot> snapshots;
  snapshots.reserve(open_.size());
  for (const auto& [machine, process] : open_) {
    OpenProcessSnapshot snapshot;
    snapshot.machine = machine;
    snapshot.start = process.start;
    snapshot.symptom = std::string(log_.symptoms().Name(process.initial_symptom));
    snapshot.tried = process.tried;
    snapshot.timeouts = process.timeouts;
    snapshot.quarantined = process.quarantined;
    snapshot.last_event_time = process.last_event_time;
    snapshot.trace_id = process.trace;
    snapshots.push_back(std::move(snapshot));
  }
  // open_ iteration order is unspecified; sort for deterministic replication.
  std::sort(snapshots.begin(), snapshots.end(),
            [](const OpenProcessSnapshot& a, const OpenProcessSnapshot& b) {
              return a.machine < b.machine;
            });
  return snapshots;
}

bool RecoveryManager::AdoptProcess(SimTime now,
                                   const OpenProcessSnapshot& snapshot) {
  if (open_.contains(snapshot.machine)) return false;
  const SymptomId id = log_.symptoms().Intern(snapshot.symptom);
  OpenProcess process;
  process.start = snapshot.start;
  process.initial_symptom = id;
  process.last_symptom = id;
  process.last_symptom_time = snapshot.last_event_time;
  process.tried = snapshot.tried;
  process.timeouts = snapshot.timeouts;
  process.quarantined = snapshot.quarantined;
  process.trace = snapshot.trace_id;
  // The adopting coordinator's clock is `now`; the snapshot's watermark may
  // be ahead of it if replication raced an event — keep the max so the
  // monotonic clamp never regresses.
  process.last_event_time = std::max(now, snapshot.last_event_time);
  // The snapshotted in-flight action (if any) is the previous leader's; its
  // result will never reach this manager, so treat it as settled and let the
  // next OnRecoveryNeeded issue the next action of the ladder.
  process.action_in_flight = false;
  process.last_recovery_end = history_[snapshot.machine].last_recovery_end;
  ++stats_.processes_adopted;
  if (obs_.adopted) obs_.adopted->Inc();
  open_.emplace(snapshot.machine, std::move(process));
  return true;
}

bool RecoveryManager::IsQuarantined(MachineId machine) const {
  const auto it = open_.find(machine);
  return it != open_.end() && it->second.quarantined;
}

}  // namespace aer
