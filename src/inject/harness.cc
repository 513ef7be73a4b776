#include "inject/harness.h"

#include <algorithm>
#include <queue>

#include "common/check.h"
#include "common/profiler.h"
#include "common/rng.h"

namespace aer {
namespace {

enum class EventKind : int {
  kIncident = 0,  // machine falls sick; starts its re-emit chain
  kDeliver = 1,   // a symptom report reaches the manager
  kReemit = 2,    // sick machine re-reports its symptom
  kActionDone = 3,  // an executed action reports its result
  kPoll = 4,        // PollTimeouts sweep
};

struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;  // tie-break: FIFO at equal times (determinism)
  EventKind kind = EventKind::kIncident;
  MachineId machine = 0;
  // kIncident payload.
  std::string symptom;
  int cure_strength = 0;
  // kDeliver payload: the second copy of a duplicated report.
  bool duplicate = false;
  // kActionDone payload.
  bool report_healthy = false;
  bool actually_cured = false;
  int epoch = 0;
  // The executed attempt's trace identity, stamped on its result records.
  obs::TraceId trace = obs::kNoTrace;
  int attempt = -1;
  int action = -1;
  // kDeliver payload for delayed deliveries: events_processed at scheduling
  // time, so arrival can compute how many events overtook this one (-1 for
  // on-time deliveries).
  std::int64_t scheduled_after = -1;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

InjectionHarness::InjectionHarness(RecoveryPolicy& policy,
                                   RecoveryManagerConfig manager_config,
                                   HarnessConfig config)
    : config_(config), manager_(policy, manager_config) {
  AER_CHECK_GE(config_.drop_event, 0.0);
  AER_CHECK_LE(config_.drop_event, 1.0);
  AER_CHECK_GE(config_.duplicate_event, 0.0);
  AER_CHECK_GE(config_.delay_event, 0.0);
  AER_CHECK_GT(config_.max_delay, 0);
  AER_CHECK_GE(config_.hang_action, 0.0);
  AER_CHECK_LE(config_.hang_action, 1.0);
  AER_CHECK_GE(config_.false_success, 0.0);
  AER_CHECK_LE(config_.false_success, 1.0);
  AER_CHECK_GT(config_.reemit_interval, 0);
  AER_CHECK_GT(config_.poll_interval, 0);
  if (config_.hang_action > 0.0) {
    // Without a deadline a hung action is unrecoverable by construction.
    AER_CHECK_GT(manager_config.action_timeout, 0);
  }
}

void InjectionHarness::SetTimeSeries(obs::TimeSeriesRecorder* recorder) {
  timeseries_ = recorder;
}

void InjectionHarness::SetObservers(obs::TraceCollector* traces,
                                    obs::MetricsRegistry* metrics) {
  traces_ = traces;
  manager_.SetObservers(traces, metrics);
  if (metrics == nullptr) {
    obs_ = ObsMetrics{};
    return;
  }
  obs_.incidents = &metrics->GetCounter("aer_inject_incidents_total");
  obs_.cures = &metrics->GetCounter("aer_inject_cures_total");
  obs_.dropped = &metrics->GetCounter("aer_inject_events_dropped_total");
  obs_.duplicated =
      &metrics->GetCounter("aer_inject_events_duplicated_total");
  obs_.delayed = &metrics->GetCounter("aer_inject_events_delayed_total");
  obs_.hangs = &metrics->GetCounter("aer_inject_hangs_total");
  obs_.false_successes =
      &metrics->GetCounter("aer_inject_false_successes_total");
  obs_.reorder_depth = &metrics->GetStat("aer_inject_reorder_depth");
}

HarnessResult InjectionHarness::Run(
    const std::vector<HarnessIncident>& incidents) {
  AER_PROFILE_SCOPE("harness_run");
  Rng rng(config_.seed);
  HarnessResult result;
  result.incidents = static_cast<std::int64_t>(incidents.size());

  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  std::uint64_t seq = 0;
  bool poll_scheduled = false;

  const auto push = [&queue, &seq](Event e) {
    e.seq = seq++;
    queue.push(std::move(e));
  };

  for (const HarnessIncident& incident : incidents) {
    AER_CHECK_GE(incident.time, 0);
    AER_CHECK_GE(incident.cure_strength, 0);
    AER_CHECK_LT(incident.cure_strength, kNumActions);
    Event e;
    e.time = incident.time;
    e.kind = EventKind::kIncident;
    e.machine = incident.machine;
    e.symptom = incident.symptom;
    e.cure_strength = incident.cure_strength;
    push(std::move(e));
  }

  // Emits one symptom report through the injection layer.
  const auto emit_symptom = [&](SimTime now, MachineId machine) {
    if (rng.NextBool(config_.drop_event)) {
      ++result.events_dropped;
      if (obs_.dropped) obs_.dropped->Inc();
      Trace({.trace_id = machines_[machine].trace,
             .time = now,
             .kind = obs::TraceEventKind::kMessageDrop,
             .machine = machine,
             .detail = "dropped"});
      return;
    }
    Event e;
    e.kind = EventKind::kDeliver;
    e.machine = machine;
    e.time = now;
    if (rng.NextBool(config_.delay_event)) {
      e.time += rng.NextInt(1, config_.max_delay);
      e.scheduled_after =
          static_cast<std::int64_t>(result.events_processed);
      ++result.events_delayed;
      if (obs_.delayed) obs_.delayed->Inc();
    }
    push(e);
    if (rng.NextBool(config_.duplicate_event)) {
      e.duplicate = true;
      push(e);
      ++result.events_duplicated;
      if (obs_.duplicated) obs_.duplicated->Inc();
    }
  };

  // Executes the action the manager just decided. RMA is injection-immune.
  const auto execute_action = [&](SimTime now, MachineId machine,
                                  RepairAction action) {
    MachineState& state = machines_[machine];
    state.awaiting_result = true;
    ++state.epoch;
    const bool cures =
        !state.sick || action == RepairAction::kRma ||
        ActionStrength(action) >= state.cure_strength;
    obs::TraceRecord hop{.trace_id = manager_.TraceOf(machine),
                         .time = now,
                         .kind = obs::TraceEventKind::kDispatch,
                         .machine = machine,
                         .attempt = manager_.ActionsTried(machine) - 1,
                         .action = ActionIndex(action),
                         .detail = {}};
    Trace(hop);
    hop.kind = obs::TraceEventKind::kActionStart;
    Trace(hop);
    if (action != RepairAction::kRma && rng.NextBool(config_.hang_action)) {
      ++result.hangs_injected;
      if (obs_.hangs) obs_.hangs->Inc();
      hop.kind = obs::TraceEventKind::kResultLost;
      hop.detail = "hang";
      Trace(std::move(hop));
      return;  // no result event: only PollTimeouts can unstick this
    }
    Event e;
    e.time = now + config_.action_duration[static_cast<std::size_t>(
                       ActionIndex(action))];
    e.kind = EventKind::kActionDone;
    e.machine = machine;
    e.epoch = state.epoch;
    e.actually_cured = cures;
    e.report_healthy = cures;
    e.trace = hop.trace_id;
    e.attempt = hop.attempt;
    e.action = hop.action;
    if (!cures && action != RepairAction::kRma &&
        rng.NextBool(config_.false_success)) {
      e.report_healthy = true;  // lies: machine is still sick
      ++result.false_successes_injected;
      if (obs_.false_successes) obs_.false_successes->Inc();
    }
    push(e);
  };

  // Asks the manager for the next action (if a process is open and nothing
  // is in flight from the harness's point of view).
  const auto drive = [&](SimTime now, MachineId machine) {
    const MachineState& state = machines_[machine];
    if (state.awaiting_result) return;
    if (!manager_.HasOpenProcess(machine)) return;
    const std::optional<RepairAction> action =
        manager_.OnRecoveryNeeded(now, machine);
    if (action.has_value()) execute_action(now, machine, *action);
  };

  const auto schedule_poll = [&](SimTime now) {
    if (poll_scheduled || config_.hang_action <= 0.0) return;
    Event e;
    e.time = now + config_.poll_interval;
    e.kind = EventKind::kPoll;
    push(e);
    poll_scheduled = true;
  };

  while (!queue.empty()) {
    if (++result.events_processed > config_.max_events) {
      // Budget blown: report a hang instead of hanging.
      result.all_completed = false;
      result.manager = manager_.stats();
      if (timeseries_ != nullptr) timeseries_->Finish(result.end_time);
      return result;
    }
    const Event event = queue.top();
    queue.pop();
    result.end_time = event.time;
    if (timeseries_ != nullptr) timeseries_->AdvanceTo(event.time);

    switch (event.kind) {
      case EventKind::kIncident: {
        MachineState& state = machines_[event.machine];
        const bool fresh = !state.sick;
        if (fresh) {
          // A fresh incident opens a new recovery episode; overlapping
          // incidents join the open one.
          ++state.episodes;
          state.trace = obs::MakeTraceId(
              config_.seed, event.machine,
              static_cast<std::uint64_t>(state.episodes));
        }
        state.sick = true;
        state.symptom = event.symptom;
        if (obs_.incidents) obs_.incidents->Inc();
        Trace({.trace_id = state.trace,
               .time = event.time,
               .kind = obs::TraceEventKind::kIncident,
               .machine = event.machine,
               .duplicate = !fresh,
               .detail = event.symptom});
        // Overlapping incidents on one machine: the harder fault wins.
        state.cure_strength =
            std::max(state.cure_strength, event.cure_strength);
        Event reemit;
        reemit.time = event.time;
        reemit.kind = EventKind::kReemit;
        reemit.machine = event.machine;
        push(reemit);
        break;
      }
      case EventKind::kReemit: {
        MachineState& state = machines_[event.machine];
        if (!state.sick) break;  // cured: the chain ends
        emit_symptom(event.time, event.machine);
        Event next = event;
        next.time += config_.reemit_interval;
        push(next);
        break;
      }
      case EventKind::kDeliver: {
        MachineState& state = machines_[event.machine];
        if (event.scheduled_after >= 0) {
          // Events processed between this delayed report's emission and its
          // arrival all overtook it: the reorder depth the manager absorbed.
          const std::int64_t depth =
              static_cast<std::int64_t>(result.events_processed) -
              event.scheduled_after - 1;
          result.reorder_depth_max = std::max(result.reorder_depth_max, depth);
          result.reorder_depth_sum += depth;
          if (obs_.reorder_depth) {
            obs_.reorder_depth->Observe(static_cast<double>(depth));
          }
        }
        Trace({.trace_id = state.trace,
               .time = event.time,
               .kind = obs::TraceEventKind::kSymptom,
               .machine = event.machine,
               .duplicate = event.duplicate,
               .detail = event.scheduled_after >= 0 ? "delayed"
                                                    : state.symptom});
        manager_.OnSymptom(event.time, event.machine, state.symptom,
                           obs::TraceContext{state.trace});
        drive(event.time, event.machine);
        schedule_poll(event.time);
        break;
      }
      case EventKind::kActionDone: {
        MachineState& state = machines_[event.machine];
        if (event.epoch != state.epoch) break;  // superseded after a timeout
        state.awaiting_result = false;
        obs::TraceRecord hop{
            .trace_id = event.trace,
            .time = event.time,
            .kind = obs::TraceEventKind::kActionDone,
            .machine = event.machine,
            .attempt = event.attempt,
            .action = event.action,
            .detail = event.actually_cured   ? "cured"
                      : event.report_healthy ? "false_success"
                                             : "sick"};
        Trace(hop);
        if (event.actually_cured && state.sick) {
          state.sick = false;
          state.cure_strength = 0;
          ++result.cures;
          if (obs_.cures) obs_.cures->Inc();
          hop.kind = obs::TraceEventKind::kCure;
          hop.detail.clear();
          Trace(hop);
        }
        hop.kind = obs::TraceEventKind::kResultDeliver;
        hop.detail = event.report_healthy ? "healthy" : "sick";
        Trace(std::move(hop));
        manager_.OnActionResult(event.time, event.machine,
                                event.report_healthy);
        if (!event.report_healthy) drive(event.time, event.machine);
        // On false success the process just closed while the machine is
        // still sick; its re-emit chain is alive and will reopen it.
        break;
      }
      case EventKind::kPoll: {
        poll_scheduled = false;
        const std::vector<MachineId> overdue =
            manager_.PollTimeouts(event.time);
        for (const MachineId machine : overdue) {
          machines_[machine].awaiting_result = false;
          drive(event.time, machine);
        }
        if (manager_.open_process_count() > 0 || !queue.empty()) {
          schedule_poll(event.time);
        }
        break;
      }
    }
  }

  bool any_sick = false;
  for (const auto& [machine, state] : machines_) {
    if (state.sick) any_sick = true;
  }
  result.all_completed = !any_sick && manager_.open_process_count() == 0;
  result.manager = manager_.stats();
  if (timeseries_ != nullptr) timeseries_->Finish(result.end_time);
  return result;
}

}  // namespace aer
