#include "ctrl/service.h"

#include <utility>

namespace aer::ctrl {

CoordinatedRecoveryService::CoordinatedRecoveryService(
    RecoveryPolicy& policy, RecoveryManagerConfig manager_config,
    const LeaseTable& lease)
    : manager_(policy, manager_config), lease_(lease) {}

void CoordinatedRecoveryService::SetObservers(obs::TraceCollector* traces,
                                              obs::MetricsRegistry* metrics) {
  manager_.SetObservers(traces, metrics);
  if (metrics == nullptr) {
    obs_ = ObsMetrics{};
    return;
  }
  obs_.gated = &metrics->GetCounter("aer_ctrl_actions_gated_total");
  obs_.snapshots_installed =
      &metrics->GetCounter("aer_ctrl_snapshots_installed_total");
}

bool CoordinatedRecoveryService::Admitted(SimTime now) {
  if (lease_.HoldsLease(now)) return true;
  {
    MutexLock lock(mu_);
    ++actions_gated_;
  }
  if (obs_.gated) obs_.gated->Inc();
  return false;
}

bool CoordinatedRecoveryService::OnSymptom(SimTime now, MachineId machine,
                                           std::string_view symptom,
                                           obs::TraceContext trace) {
  if (!Admitted(now)) return false;
  manager_.OnSymptom(now, machine, symptom, trace);
  return true;
}

std::optional<RepairAction> CoordinatedRecoveryService::OnRecoveryNeeded(
    SimTime now, MachineId machine) {
  if (!Admitted(now)) return std::nullopt;
  return manager_.OnRecoveryNeeded(now, machine);
}

bool CoordinatedRecoveryService::OnActionResult(SimTime now,
                                                MachineId machine,
                                                bool healthy) {
  if (!Admitted(now)) return false;
  manager_.OnActionResult(now, machine, healthy);
  return true;
}

std::vector<MachineId> CoordinatedRecoveryService::PollTimeouts(SimTime now) {
  if (!Admitted(now)) return {};
  return manager_.PollTimeouts(now);
}

std::uint64_t CoordinatedRecoveryService::PublishSnapshot(
    std::vector<OpenProcessSnapshot>* out) {
  *out = manager_.ExportOpenProcesses();
  MutexLock lock(mu_);
  // The leader's own replica tracks its manager, so a later re-election of
  // the same node adopts nothing spurious.
  replica_ = *out;
  return ++replica_version_;
}

bool CoordinatedRecoveryService::InstallReplica(
    std::uint64_t version, std::vector<OpenProcessSnapshot> snapshot) {
  {
    MutexLock lock(mu_);
    if (version <= replica_version_) return false;
    replica_version_ = version;
    replica_ = std::move(snapshot);
  }
  if (obs_.snapshots_installed) obs_.snapshots_installed->Inc();
  return true;
}

std::vector<MachineId> CoordinatedRecoveryService::AdoptReplica(SimTime now) {
  std::vector<OpenProcessSnapshot> replica;
  {
    MutexLock lock(mu_);
    replica = replica_;
  }
  std::vector<MachineId> adopted;
  for (const OpenProcessSnapshot& snapshot : replica) {
    if (manager_.AdoptProcess(now, snapshot)) {
      adopted.push_back(snapshot.machine);
    }
  }
  return adopted;
}

std::uint64_t CoordinatedRecoveryService::replica_version() const {
  MutexLock lock(mu_);
  return replica_version_;
}

std::size_t CoordinatedRecoveryService::replica_entries() const {
  MutexLock lock(mu_);
  return replica_.size();
}

std::int64_t CoordinatedRecoveryService::actions_gated() const {
  MutexLock lock(mu_);
  return actions_gated_;
}

}  // namespace aer::ctrl
