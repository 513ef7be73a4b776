#include "ctrl/harness.h"

#include <algorithm>
#include <queue>

#include "common/check.h"
#include "common/profiler.h"

namespace aer::ctrl {
namespace {

void AddStats(Coordinator::Stats& into, const Coordinator::Stats& from) {
  into.heartbeats_sent += from.heartbeats_sent;
  into.elections_started += from.elections_started;
  into.votes_granted += from.votes_granted;
  into.leases_acquired += from.leases_acquired;
  into.lease_renewals += from.lease_renewals;
  into.stepdowns += from.stepdowns;
  into.takeovers += from.takeovers;
  into.processes_adopted += from.processes_adopted;
  into.stale_results_dropped += from.stale_results_dropped;
}

}  // namespace

ControlHarnessConfig OneCoordinatorConfig() {
  ControlHarnessConfig config;
  config.cluster_size = 1;
  config.tick_interval = 60;
  config.coordinator.lease.lease_duration = 6 * 60;
  config.coordinator.membership.suspect_after = 3 * 60;
  config.coordinator.membership.evict_after = 12 * 60;
  config.coordinator.election_retry = 2 * 60;
  config.net.max_delay = 2 * 60;
  return config;
}

struct ControlPlaneHarness::Event {
  enum class Kind : int {
    kIncident = 0,        // a machine falls sick
    kReemit = 1,          // sick machine re-reports (ends when cured)
    kSymptomDeliver = 2,  // one symptom report reaches one coordinator
    kCoordTick = 3,       // periodic maintenance for one node
    kMsgDeliver = 4,      // coordinator-to-coordinator message arrives
    kDispatchDeliver = 5,  // a fenced action reaches its machine
    kActionDone = 6,       // the machine finished executing
    kResultDeliver = 7,    // the result reaches the issuing coordinator
  };

  SimTime time = 0;
  std::uint64_t seq = 0;  // FIFO tie-break at equal times (determinism)
  Kind kind = Kind::kIncident;
  MachineId machine = 0;
  NodeId node = kNoNode;
  std::string symptom;
  int cure_strength = 0;
  Message msg;
  ActionDispatch dispatch;
  bool healthy = false;
  // The event descends from a network-duplicated hop; trace records it
  // produces carry the flag so the critical-path analyzer never
  // double-counts stages.
  bool duplicate = false;
  // A symptom report the machine network delivered late.
  bool delayed = false;
};

ControlPlaneHarness::ControlPlaneHarness(RecoveryPolicy& policy,
                                         RecoveryManagerConfig manager_config,
                                         ControlHarnessConfig config,
                                         NetFaultScript script)
    : manager_config_(manager_config),
      config_(config),
      policy_(policy),
      net_(config.net, script),
      auditor_(config.cluster_size) {
  AER_CHECK_GT(config_.cluster_size, 0);
  AER_CHECK_GT(config_.tick_interval, 0);
  AER_CHECK_GT(config_.net_latency, 0);
  AER_CHECK_GT(config_.reemit_interval, 0);
  for (const NodeCrash& crash : script.crashes) {
    AER_CHECK_LT(crash.node, config_.cluster_size)
        << "scripted crash names a node outside the cluster";
  }
  if (!script.crashes.empty() || config_.net.drop_machine_hop > 0.0) {
    // A crashed issuer never hears its in-flight results, and a dropped
    // dispatch never runs; without timeouts those processes would be stuck
    // forever.
    AER_CHECK_GT(manager_config_.action_timeout, 0);
  }
  coordinators_.resize(static_cast<std::size_t>(config_.cluster_size));
  durable_.resize(static_cast<std::size_t>(config_.cluster_size));
  for (NodeId node = 0; node < config_.cluster_size; ++node) {
    coordinators_[static_cast<std::size_t>(node)] =
        std::make_unique<Coordinator>(node, config_.cluster_size,
                                      config_.coordinator, policy_,
                                      manager_config_, VoterRecord{});
  }
}

void ControlPlaneHarness::SetObservers(obs::TraceCollector* traces,
                                       obs::MetricsRegistry* metrics) {
  traces_ = traces;
  metrics_ = metrics;
  net_.SetMetrics(metrics);
  for (auto& coordinator : coordinators_) {
    if (coordinator) coordinator->SetObservers(traces, metrics);
  }
  stale_rejected_metric_ =
      metrics == nullptr
          ? nullptr
          : &metrics->GetCounter("aer_ctrl_stale_actions_rejected_total");
}

void ControlPlaneHarness::ApplyTransitions(SimTime now) {
  for (const NetTransition& transition : net_.AdvanceTo(now)) {
    if (transition.kind == NetTransition::Kind::kCrash) {
      auto& coordinator =
          coordinators_[static_cast<std::size_t>(transition.node)];
      if (coordinator) {
        // The voter record is the node's durable storage: it survives.
        durable_[static_cast<std::size_t>(transition.node)] =
            coordinator->durable();
        AddStats(retired_stats_, coordinator->stats());
        retired_gated_ += coordinator->service().actions_gated();
        coordinator.reset();
      }
      if (traces_) {
        obs::TraceRecord record;
        record.time = transition.at;
        record.kind = obs::TraceEventKind::kNodeCrash;
        record.node = transition.node;
        traces_->Record(std::move(record));
      }
    } else if (transition.kind == NetTransition::Kind::kRestart) {
      auto& coordinator =
          coordinators_[static_cast<std::size_t>(transition.node)];
      coordinator = std::make_unique<Coordinator>(
          transition.node, config_.cluster_size, config_.coordinator,
          policy_, manager_config_,
          durable_[static_cast<std::size_t>(transition.node)]);
      coordinator->SetObservers(traces_, metrics_);
      if (traces_) {
        obs::TraceRecord record;
        record.time = transition.at;
        record.kind = obs::TraceEventKind::kNodeRestart;
        record.node = transition.node;
        traces_->Record(std::move(record));
      }
    }
    // Partition start/heal is routing state the perturber already applied.
  }
}

bool ControlPlaneHarness::Quiescent(SimTime now) const {
  for (const auto& [machine, state] : machines_) {
    if (state.sick || state.executing) return false;
  }
  if (work_pending_ > 0) return false;
  bool any_lease = false;
  for (const auto& coordinator : coordinators_) {
    if (!coordinator) continue;
    if (coordinator->lease().HoldsLease(now)) {
      any_lease = true;
      if (coordinator->service().manager().open_process_count() > 0) {
        return false;
      }
    }
  }
  if (!any_lease) {
    // No one may issue right now, but unowned work remains on live nodes:
    // keep ticking so an election can claim and finish it.
    for (const auto& coordinator : coordinators_) {
      if (!coordinator) continue;
      if (coordinator->service().manager().open_process_count() > 0 ||
          coordinator->service().replica_entries() > 0) {
        return false;
      }
    }
  }
  return true;
}

ControlHarnessResult ControlPlaneHarness::Run(
    const std::vector<ControlIncident>& incidents) {
  AER_PROFILE_SCOPE("ctrl_harness_run");
  ControlHarnessResult result;
  result.incidents = static_cast<std::int64_t>(incidents.size());

  const auto later = [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> queue(
      later);
  std::uint64_t seq = 0;

  const auto counts_as_work = [](Event::Kind kind) {
    return kind != Event::Kind::kCoordTick &&
           kind != Event::Kind::kMsgDeliver;
  };
  // Scheduled tick events per node: chains die at quiescence, and a later
  // incident must revive them or nobody would ever be elected to cure it.
  std::vector<std::int64_t> ticks_pending(
      static_cast<std::size_t>(config_.cluster_size), 0);
  const auto push = [this, &queue, &seq, &counts_as_work,
                     &ticks_pending](Event e) {
    e.seq = seq++;
    if (counts_as_work(e.kind)) ++work_pending_;
    if (e.kind == Event::Kind::kCoordTick) {
      ++ticks_pending[static_cast<std::size_t>(e.node)];
    }
    queue.push(std::move(e));
  };

  // Everything a coordinator produced goes back through the network (the
  // perturber decides each message's fate) or out to the fleet.
  const auto process_output = [this, &push, &result](SimTime now,
                                                     CoordinatorOutput out) {
    for (Message& message : out.messages) {
      const NetPerturber::Routing routing =
          net_.Route(now, message.from, message.to, config_.net_latency);
      if (routing.deliver) {
        Event e;
        e.kind = Event::Kind::kMsgDeliver;
        e.time = routing.at;
        e.msg = message;
        push(std::move(e));
      }
      if (routing.duplicated) {
        Event e;
        e.kind = Event::Kind::kMsgDeliver;
        e.time = routing.duplicate_at;
        e.msg = std::move(message);
        push(std::move(e));
      }
    }
    for (const ActionDispatch& dispatch : out.dispatches) {
      auditor_.OnActionIssued(now, dispatch.issuer, dispatch.epoch,
                              dispatch.machine);
      const std::int64_t index = result.actions_dispatched++;
      SimTime extra_delay = 0;
      for (const ControlHarnessConfig::DispatchDelay& scripted :
           config_.dispatch_delays) {
        if (scripted.dispatch_index == index) extra_delay = scripted.delay;
      }
      DispatchRecord record;
      record.time = now;
      record.issuer = dispatch.issuer;
      record.epoch = dispatch.epoch;
      record.machine = dispatch.machine;
      record.action = ActionIndex(dispatch.action);
      result.dispatch_log.push_back(record);
      if (traces_) {
        obs::TraceRecord trace;
        trace.trace_id = dispatch.trace;
        trace.time = now;
        trace.kind = obs::TraceEventKind::kDispatch;
        trace.machine = dispatch.machine;
        trace.node = dispatch.issuer;
        trace.attempt = dispatch.attempt;
        trace.action = ActionIndex(dispatch.action);
        trace.epoch = dispatch.epoch;
        traces_->Record(std::move(trace));
      }
      const NetPerturber::Routing routing = net_.RouteMachineHop(
          now, config_.net_latency + extra_delay);
      if (routing.deliver) {
        Event e;
        e.kind = Event::Kind::kDispatchDeliver;
        e.time = routing.at;
        e.dispatch = dispatch;
        push(std::move(e));
      } else {
        // Lost on the machine network: the issuer's timeout machinery (or
        // the re-emit chain) retries. The trace keeps the orphan edge.
        if (traces_) {
          obs::TraceRecord trace;
          trace.trace_id = dispatch.trace;
          trace.time = now;
          trace.kind = obs::TraceEventKind::kDispatchDrop;
          trace.machine = dispatch.machine;
          trace.node = dispatch.issuer;
          trace.attempt = dispatch.attempt;
          trace.action = ActionIndex(dispatch.action);
          trace.epoch = dispatch.epoch;
          trace.detail = "dropped";
          traces_->Record(std::move(trace));
        }
      }
      if (routing.duplicated) {
        Event e;
        e.kind = Event::Kind::kDispatchDeliver;
        e.time = routing.duplicate_at;
        e.dispatch = dispatch;
        e.duplicate = true;
        push(std::move(e));
      }
    }
  };

  for (NodeId node = 0; node < config_.cluster_size; ++node) {
    Event e;
    e.kind = Event::Kind::kCoordTick;
    e.time = 0;
    e.node = node;
    push(std::move(e));
  }
  for (const ControlIncident& incident : incidents) {
    AER_CHECK_GE(incident.time, 0);
    AER_CHECK_GE(incident.cure_strength, 0);
    AER_CHECK_LT(incident.cure_strength, kNumActions);
    Event e;
    e.kind = Event::Kind::kIncident;
    e.time = incident.time;
    e.machine = incident.machine;
    e.symptom = incident.symptom;
    e.cure_strength = incident.cure_strength;
    push(std::move(e));
  }

  const auto finalize = [this, &result] {
    result.coordinators = retired_stats_;
    result.actions_gated = retired_gated_;
    for (const auto& coordinator : coordinators_) {
      if (!coordinator) continue;
      AddStats(result.coordinators, coordinator->stats());
      result.actions_gated += coordinator->service().actions_gated();
    }
    result.audit = auditor_.report();
    result.net = net_.stats();
    if (timeseries_) timeseries_->Finish(result.end_time);
  };

  while (!queue.empty()) {
    if (++result.events_processed > config_.max_events) {
      result.all_completed = false;  // budget blown: report, don't hang
      finalize();
      return result;
    }
    const Event event = queue.top();
    queue.pop();
    if (counts_as_work(event.kind)) --work_pending_;
    if (event.kind == Event::Kind::kCoordTick) {
      --ticks_pending[static_cast<std::size_t>(event.node)];
    }
    result.end_time = event.time;
    if (timeseries_) timeseries_->AdvanceTo(event.time);
    ApplyTransitions(event.time);

    switch (event.kind) {
      case Event::Kind::kIncident: {
        MachineState& machine = machines_[event.machine];
        const bool fresh = !machine.sick;
        machine.sick = true;
        machine.symptom = event.symptom;
        // Overlapping incidents: the harder fault wins.
        machine.cure_strength =
            std::max(machine.cure_strength, event.cure_strength);
        if (fresh) {
          // A fresh incident opens a new recovery episode: mint its
          // deterministic trace id. Overlapping incidents join the episode.
          ++machine.episodes;
          machine.trace = obs::MakeTraceId(config_.net.seed, event.machine,
                                           machine.episodes);
        }
        if (traces_) {
          obs::TraceRecord trace;
          trace.trace_id = machine.trace;
          trace.time = event.time;
          trace.kind = obs::TraceEventKind::kIncident;
          trace.machine = event.machine;
          trace.duplicate = !fresh;
          trace.detail = event.symptom;
          traces_->Record(std::move(trace));
        }
        Event reemit;
        reemit.kind = Event::Kind::kReemit;
        reemit.time = event.time;
        reemit.machine = event.machine;
        push(std::move(reemit));
        // Revive any tick chain that shut down at an earlier quiescence:
        // without ticks there are no elections, and without elections a
        // late incident would never find a leaseholder to cure it.
        for (NodeId node = 0; node < config_.cluster_size; ++node) {
          if (ticks_pending[static_cast<std::size_t>(node)] > 0) continue;
          Event tick;
          tick.kind = Event::Kind::kCoordTick;
          tick.time = event.time;
          tick.node = node;
          push(std::move(tick));
        }
        break;
      }
      case Event::Kind::kReemit: {
        const MachineState& machine = machines_[event.machine];
        if (!machine.sick) break;  // cured: the chain ends
        // Monitoring broadcasts the symptom to every coordinator over the
        // machine network; a down node simply misses this round, and a
        // lost report is re-detected by the next re-emit.
        for (NodeId node = 0; node < config_.cluster_size; ++node) {
          const NetPerturber::Routing routing =
              net_.RouteMachineHop(event.time, config_.net_latency);
          if (!routing.deliver) {
            if (traces_) {
              obs::TraceRecord trace;
              trace.trace_id = machine.trace;
              trace.time = event.time;
              trace.kind = obs::TraceEventKind::kMessageDrop;
              trace.machine = event.machine;
              trace.node = node;
              trace.detail = "dropped";
              traces_->Record(std::move(trace));
            }
            continue;
          }
          Event deliver;
          deliver.kind = Event::Kind::kSymptomDeliver;
          deliver.time = routing.at;
          deliver.machine = event.machine;
          deliver.node = node;
          deliver.delayed = routing.at > event.time + config_.net_latency;
          push(deliver);
          if (routing.duplicated) {
            deliver.time = routing.duplicate_at;
            deliver.duplicate = true;
            push(std::move(deliver));
          }
        }
        Event next;
        next.kind = Event::Kind::kReemit;
        next.time = event.time + config_.reemit_interval;
        next.machine = event.machine;
        push(std::move(next));
        break;
      }
      case Event::Kind::kSymptomDeliver: {
        const auto node = static_cast<std::size_t>(event.node);
        if (!net_.NodeUp(event.node) || !coordinators_[node]) break;
        MachineState& machine = machines_[event.machine];
        // Only the leaseholder's admission is a trace event: followers
        // receive the same broadcast but gate it, and recording theirs
        // would make the trace stream depend on the cluster size.
        if (traces_ && coordinators_[node]->IsLeader(event.time)) {
          obs::TraceRecord trace;
          trace.trace_id = machine.trace;
          trace.time = event.time;
          trace.kind = obs::TraceEventKind::kSymptom;
          trace.machine = event.machine;
          trace.node = event.node;
          trace.duplicate = event.duplicate;
          trace.detail = event.delayed ? "delayed" : machine.symptom;
          traces_->Record(std::move(trace));
        }
        process_output(event.time,
                       coordinators_[node]->OnSymptom(
                           event.time, event.machine, machine.symptom,
                           obs::TraceContext{machine.trace}));
        break;
      }
      case Event::Kind::kCoordTick: {
        const auto node = static_cast<std::size_t>(event.node);
        if (net_.NodeUp(event.node) && coordinators_[node]) {
          process_output(event.time, coordinators_[node]->Tick(event.time));
        }
        if (!Quiescent(event.time)) {
          Event next;
          next.kind = Event::Kind::kCoordTick;
          next.time = event.time + config_.tick_interval;
          next.node = event.node;
          push(std::move(next));
        }
        break;
      }
      case Event::Kind::kMsgDeliver: {
        const NodeId to = event.msg.to;
        const auto node = static_cast<std::size_t>(to);
        if (!net_.NodeUp(to) || !coordinators_[node]) break;  // lost
        if (event.msg.kind == MessageKind::kVoteGrant &&
            event.msg.candidate == to) {
          // The grant counts (for the auditor as for the candidate) from
          // the moment it is received.
          auditor_.OnVoteGrant(event.time, event.msg.from,
                               event.msg.candidate, event.msg.epoch,
                               event.msg.expiry);
        }
        process_output(event.time,
                       coordinators_[node]->Deliver(event.time, event.msg));
        break;
      }
      case Event::Kind::kDispatchDeliver: {
        const ActionDispatch& dispatch = event.dispatch;
        const auto trace_hop = [this, &event, &dispatch](
                                   obs::TraceEventKind kind,
                                   std::string detail) {
          if (!traces_) return;
          obs::TraceRecord trace;
          trace.trace_id = dispatch.trace;
          trace.time = event.time;
          trace.kind = kind;
          trace.machine = dispatch.machine;
          trace.node = dispatch.issuer;
          trace.attempt = dispatch.attempt;
          trace.action = ActionIndex(dispatch.action);
          trace.epoch = dispatch.epoch;
          trace.duplicate = event.duplicate;
          trace.detail = std::move(detail);
          traces_->Record(std::move(trace));
        };
        if (!fence_.Admit(dispatch.machine, dispatch.epoch)) {
          auditor_.OnStaleRejected(event.time, dispatch.machine,
                                   dispatch.epoch);
          ++result.stale_rejected;
          if (stale_rejected_metric_) stale_rejected_metric_->Inc();
          trace_hop(obs::TraceEventKind::kFenceReject, "stale_epoch");
          break;
        }
        MachineState& machine = machines_[dispatch.machine];
        if (machine.executing) {
          // One action at a time; the issuer's timeout machinery (or the
          // re-emit chain) retries once the machine frees up.
          ++result.busy_drops;
          trace_hop(obs::TraceEventKind::kBusyDrop, "executing");
          break;
        }
        machine.executing = true;
        auditor_.OnActionExecuted(event.time, dispatch.machine,
                                  dispatch.epoch);
        ++result.actions_executed;
        result.executed.push_back(
            {dispatch.machine, ActionIndex(dispatch.action)});
        trace_hop(obs::TraceEventKind::kActionStart, "");
        Event done;
        done.kind = Event::Kind::kActionDone;
        done.time =
            event.time + config_.action_duration[static_cast<std::size_t>(
                             ActionIndex(dispatch.action))];
        done.dispatch = dispatch;
        done.duplicate = event.duplicate;
        push(std::move(done));
        break;
      }
      case Event::Kind::kActionDone: {
        const ActionDispatch& dispatch = event.dispatch;
        MachineState& machine = machines_[dispatch.machine];
        machine.executing = false;
        const bool cured = !machine.sick ||
                           dispatch.action == RepairAction::kRma ||
                           ActionStrength(dispatch.action) >=
                               machine.cure_strength;
        // RMA never lies: the false-success arm only hits weaker actions
        // that left the machine sick. The machine's re-emit chain is still
        // alive, so the next report reopens the falsely closed process.
        const bool healthy = cured || (dispatch.action != RepairAction::kRma &&
                                       net_.FalseSuccess());
        const auto trace_hop = [this, &event, &dispatch](
                                   obs::TraceEventKind kind,
                                   std::string detail) {
          if (!traces_) return;
          obs::TraceRecord trace;
          trace.trace_id = dispatch.trace;
          trace.time = event.time;
          trace.kind = kind;
          trace.machine = dispatch.machine;
          trace.node = dispatch.issuer;
          trace.attempt = dispatch.attempt;
          trace.action = ActionIndex(dispatch.action);
          trace.epoch = dispatch.epoch;
          trace.duplicate = event.duplicate;
          trace.detail = std::move(detail);
          traces_->Record(std::move(trace));
        };
        trace_hop(obs::TraceEventKind::kActionDone,
                  cured     ? "cured"
                  : healthy ? "false_success"
                            : "sick");
        if (cured && machine.sick) {
          machine.sick = false;
          machine.cure_strength = 0;
          ++result.cures;
          result.cure_times.emplace_back(dispatch.machine, event.time);
          trace_hop(obs::TraceEventKind::kCure, "");
        }
        const NetPerturber::Routing routing =
            net_.RouteMachineHop(event.time, config_.net_latency);
        if (!routing.deliver) {
          // The result hop itself was lost; timeouts + re-emits rescue.
          ++result.results_lost;
          trace_hop(obs::TraceEventKind::kResultLost, "dropped");
          break;
        }
        Event report;
        report.kind = Event::Kind::kResultDeliver;
        report.time = routing.at;
        report.dispatch = dispatch;
        report.healthy = healthy;
        report.duplicate = event.duplicate;
        push(std::move(report));
        if (routing.duplicated) {
          Event dup;
          dup.kind = Event::Kind::kResultDeliver;
          dup.time = routing.duplicate_at;
          dup.dispatch = dispatch;
          dup.healthy = healthy;
          dup.duplicate = true;
          push(std::move(dup));
        }
        break;
      }
      case Event::Kind::kResultDeliver: {
        const NodeId issuer = event.dispatch.issuer;
        const auto node = static_cast<std::size_t>(issuer);
        const auto trace_hop = [this, &event, issuer](
                                   obs::TraceEventKind kind,
                                   std::string detail) {
          if (!traces_) return;
          obs::TraceRecord trace;
          trace.trace_id = event.dispatch.trace;
          trace.time = event.time;
          trace.kind = kind;
          trace.machine = event.dispatch.machine;
          trace.node = issuer;
          trace.attempt = event.dispatch.attempt;
          trace.action = ActionIndex(event.dispatch.action);
          trace.epoch = event.dispatch.epoch;
          trace.duplicate = event.duplicate;
          trace.detail = std::move(detail);
          traces_->Record(std::move(trace));
        };
        if (!net_.NodeUp(issuer) || !coordinators_[node]) {
          // The issuer died (or was replaced by a restart): the result is
          // lost; timeouts + re-emits rescue the process.
          ++result.results_lost;
          trace_hop(obs::TraceEventKind::kResultLost, "issuer_down");
          break;
        }
        trace_hop(obs::TraceEventKind::kResultDeliver,
                  event.healthy ? "healthy" : "sick");
        process_output(event.time,
                       coordinators_[node]->OnActionResult(
                           event.time, event.dispatch.machine, event.healthy,
                           event.dispatch.attempt));
        break;
      }
    }
  }

  bool any_open = false;
  for (const auto& [machine, state] : machines_) {
    if (state.sick || state.executing) any_open = true;
  }
  result.all_completed = !any_open;
  finalize();
  return result;
}

}  // namespace aer::ctrl
