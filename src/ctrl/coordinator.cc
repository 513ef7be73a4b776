#include "ctrl/coordinator.h"

#include <utility>

#include "common/check.h"

namespace aer::ctrl {

Coordinator::Coordinator(NodeId self, int cluster_size,
                         CoordinatorConfig config, RecoveryPolicy& policy,
                         RecoveryManagerConfig manager_config,
                         VoterRecord durable)
    : self_(self),
      cluster_size_(cluster_size),
      config_(config),
      membership_(self, cluster_size, config.membership),
      lease_(cluster_size, config.lease, durable),
      service_(policy, manager_config, lease_) {
  AER_CHECK_GT(config_.election_retry, 0);
}

void Coordinator::SetObservers(obs::TraceCollector* traces,
                               obs::MetricsRegistry* metrics) {
  traces_ = traces;
  service_.SetObservers(traces, metrics);
  if (metrics == nullptr) {
    obs_ = ObsMetrics{};
    return;
  }
  obs_.heartbeats = &metrics->GetCounter("aer_ctrl_heartbeats_sent_total");
  obs_.elections = &metrics->GetCounter("aer_ctrl_elections_started_total");
  obs_.votes_granted = &metrics->GetCounter("aer_ctrl_votes_granted_total");
  obs_.leases_acquired =
      &metrics->GetCounter("aer_ctrl_leases_acquired_total");
  obs_.renewals = &metrics->GetCounter("aer_ctrl_lease_renewals_total");
  obs_.stepdowns = &metrics->GetCounter("aer_ctrl_stepdowns_total");
  obs_.takeovers = &metrics->GetCounter("aer_ctrl_takeovers_total");
  obs_.adopted = &metrics->GetCounter("aer_ctrl_processes_adopted_total");
  obs_.stale_results =
      &metrics->GetCounter("aer_ctrl_stale_results_dropped_total");
  obs_.suspected = &metrics->GetCounter("aer_ctrl_members_suspected_total");
  obs_.evicted = &metrics->GetCounter("aer_ctrl_members_evicted_total");
  obs_.current_epoch = &metrics->GetGauge("aer_ctrl_current_epoch");
}

void Coordinator::DriveLocked(SimTime now, MachineId machine,
                              CoordinatorOutput* out) {
  const std::optional<RepairAction> action =
      service_.OnRecoveryNeeded(now, machine);
  if (!action.has_value()) return;
  ActionDispatch dispatch;
  dispatch.machine = machine;
  dispatch.action = *action;
  dispatch.epoch = lease_.holding_epoch();
  // OnRecoveryNeeded either recorded a fresh action or re-returned the
  // in-flight one; either way the newest recorded attempt is the one we
  // are dispatching.
  dispatch.attempt = service_.manager().ActionsTried(machine) - 1;
  dispatch.issuer = self_;
  dispatch.trace = service_.manager().TraceOf(machine);
  out->dispatches.push_back(dispatch);
}

void Coordinator::CheckBecameLeaderLocked(SimTime now,
                                          CoordinatorOutput* out) {
  if (leader_ || !lease_.HoldsLease(now)) return;
  leader_ = true;
  ++stats_.leases_acquired;
  if (obs_.leases_acquired) obs_.leases_acquired->Inc();
  if (traces_) {
    obs::TraceRecord record;
    record.time = now;
    record.kind = obs::TraceEventKind::kLeaderElected;
    record.node = self_;
    record.epoch = lease_.holding_epoch();
    traces_->Record(std::move(record));
  }
  const std::vector<MachineId> adopted = service_.AdoptReplica(now);
  if (!adopted.empty()) {
    ++stats_.takeovers;
    stats_.processes_adopted += static_cast<std::int64_t>(adopted.size());
    if (obs_.takeovers) obs_.takeovers->Inc();
    if (obs_.adopted) {
      obs_.adopted->Inc(static_cast<std::int64_t>(adopted.size()));
    }
    if (traces_) {
      for (const MachineId machine : adopted) {
        obs::TraceRecord record;
        record.trace_id = service_.manager().TraceOf(machine);
        record.time = now;
        record.kind = obs::TraceEventKind::kAdopt;
        record.machine = machine;
        record.node = self_;
        record.epoch = lease_.holding_epoch();
        traces_->Record(std::move(record));
      }
    }
  }
  // Resume: every open process (adopted or our own) gets its next action.
  for (const OpenProcessSnapshot& snapshot :
       service_.manager().ExportOpenProcesses()) {
    DriveLocked(now, snapshot.machine, out);
  }
}

void Coordinator::CheckSteppedDownLocked(SimTime now) {
  if (!leader_ || lease_.HoldsLease(now)) return;
  leader_ = false;
  lease_.ClearGrants();
  ++stats_.stepdowns;
  if (obs_.stepdowns) obs_.stepdowns->Inc();
  if (traces_) {
    obs::TraceRecord record;
    record.time = now;
    record.kind = obs::TraceEventKind::kLeaderLost;
    record.node = self_;
    record.epoch = lease_.max_seen_epoch();
    traces_->Record(std::move(record));
  }
}

void Coordinator::SyncMembershipCountersLocked() {
  const std::int64_t suspicions = membership_.suspicions();
  const std::int64_t evictions = membership_.evictions();
  if (obs_.suspected && suspicions > suspicions_seen_) {
    obs_.suspected->Inc(suspicions - suspicions_seen_);
  }
  if (obs_.evicted && evictions > evictions_seen_) {
    obs_.evicted->Inc(evictions - evictions_seen_);
  }
  suspicions_seen_ = suspicions;
  evictions_seen_ = evictions;
}

CoordinatorOutput Coordinator::Tick(SimTime now) {
  CoordinatorOutput out;
  MutexLock lock(mu_);
  CheckSteppedDownLocked(now);

  // Membership heartbeats to every peer.
  for (NodeId peer = 0; peer < cluster_size_; ++peer) {
    if (peer == self_) continue;
    Message hb;
    hb.kind = MessageKind::kHeartbeat;
    hb.from = self_;
    hb.to = peer;
    hb.sent_at = now;
    hb.epoch = lease_.max_seen_epoch();
    out.messages.push_back(std::move(hb));
    ++stats_.heartbeats_sent;
    if (obs_.heartbeats) obs_.heartbeats->Inc();
  }

  if (lease_.HoldsLease(now)) {
    // Renewal round: re-request our own epoch from everyone (self
    // included, through the network like any other voter); granting the
    // same (epoch, candidate) extends each promise.
    const Epoch epoch = lease_.holding_epoch();
    for (NodeId peer = 0; peer < cluster_size_; ++peer) {
      Message req;
      req.kind = MessageKind::kVoteRequest;
      req.from = self_;
      req.to = peer;
      req.sent_at = now;
      req.epoch = epoch;
      req.candidate = self_;
      out.messages.push_back(std::move(req));
    }
    ++stats_.lease_renewals;
    if (obs_.renewals) obs_.renewals->Inc();

    // Expire overdue in-flight actions and re-drive their machines.
    for (const MachineId machine : service_.PollTimeouts(now)) {
      DriveLocked(now, machine, &out);
    }

    // Replicate open-process state so a successor resumes, not restarts.
    std::vector<OpenProcessSnapshot> snapshot;
    const std::uint64_t version = service_.PublishSnapshot(&snapshot);
    for (NodeId peer = 0; peer < cluster_size_; ++peer) {
      if (peer == self_) continue;
      Message rep;
      rep.kind = MessageKind::kReplicate;
      rep.from = self_;
      rep.to = peer;
      rep.sent_at = now;
      rep.epoch = epoch;
      rep.snapshot_version = version;
      rep.snapshot = snapshot;
      out.messages.push_back(std::move(rep));
    }
  } else if (membership_.IsPreferredCandidate(now) &&
             (last_bid_at_ < 0 ||
              now - last_bid_at_ >= config_.election_retry)) {
    // Respect our own outstanding promise to another candidate: a majority
    // made the same promise, so bidding before it expires cannot win.
    const VoterRecord voter = lease_.durable();
    if (voter.voted_for == kNoNode || voter.voted_for == self_ ||
        now >= voter.promised_until) {
      const Epoch epoch = lease_.max_seen_epoch() + 1;
      lease_.StartCandidacy(epoch);
      last_bid_at_ = now;
      ++stats_.elections_started;
      if (obs_.elections) obs_.elections->Inc();
      for (NodeId peer = 0; peer < cluster_size_; ++peer) {
        Message req;
        req.kind = MessageKind::kVoteRequest;
        req.from = self_;
        req.to = peer;
        req.sent_at = now;
        req.epoch = epoch;
        req.candidate = self_;
        out.messages.push_back(std::move(req));
      }
    }
  }

  if (obs_.current_epoch) {
    obs_.current_epoch->Set(
        static_cast<double>(lease_.max_seen_epoch()));
  }
  SyncMembershipCountersLocked();
  return out;
}

CoordinatorOutput Coordinator::Deliver(SimTime now, const Message& message) {
  CoordinatorOutput out;
  MutexLock lock(mu_);
  if (message.from != self_) {
    // Any traffic proves the sender alive; dedicated heartbeats just put a
    // floor under the cadence.
    membership_.RecordHeartbeat(now, message.from);
  }
  lease_.ObserveEpoch(message.epoch);

  switch (message.kind) {
    case MessageKind::kHeartbeat:
      break;
    case MessageKind::kVoteRequest: {
      SimTime expiry = 0;
      if (lease_.Grant(now, message.epoch, message.candidate, &expiry)) {
        ++stats_.votes_granted;
        if (obs_.votes_granted) obs_.votes_granted->Inc();
        Message grant;
        grant.kind = MessageKind::kVoteGrant;
        grant.from = self_;
        grant.to = message.from;
        grant.sent_at = now;
        grant.epoch = message.epoch;
        grant.candidate = message.candidate;
        grant.expiry = expiry;
        out.messages.push_back(std::move(grant));
      }
      break;
    }
    case MessageKind::kVoteGrant: {
      if (message.candidate == self_) {
        lease_.RecordGrant(now, message.from, message.epoch, message.expiry);
        CheckBecameLeaderLocked(now, &out);
      }
      break;
    }
    case MessageKind::kReplicate: {
      service_.InstallReplica(message.snapshot_version, message.snapshot);
      break;
    }
  }
  SyncMembershipCountersLocked();
  return out;
}

CoordinatorOutput Coordinator::OnSymptom(SimTime now, MachineId machine,
                                         std::string_view symptom,
                                         obs::TraceContext trace) {
  CoordinatorOutput out;
  MutexLock lock(mu_);
  CheckSteppedDownLocked(now);
  if (service_.OnSymptom(now, machine, symptom, trace)) {
    DriveLocked(now, machine, &out);
  }
  return out;
}

CoordinatorOutput Coordinator::OnActionResult(SimTime now, MachineId machine,
                                              bool healthy, int attempt) {
  CoordinatorOutput out;
  MutexLock lock(mu_);
  CheckSteppedDownLocked(now);
  if (service_.manager().ActionsTried(machine) != attempt + 1) {
    // An echo of some earlier attempt (result loss + retry, or a handover
    // raced the execution): correlation says it is not the newest recorded
    // action, so absorbing it would misattribute the outcome.
    ++stats_.stale_results_dropped;
    if (obs_.stale_results) obs_.stale_results->Inc();
    return out;
  }
  if (service_.OnActionResult(now, machine, healthy) && !healthy) {
    DriveLocked(now, machine, &out);
  }
  return out;
}

bool Coordinator::IsLeader(SimTime now) const {
  return lease_.HoldsLease(now);
}

Coordinator::Stats Coordinator::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace aer::ctrl
