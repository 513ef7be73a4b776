#include "core/guarded_policy.h"

#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"

namespace aer {

GuardedPolicy::GuardedPolicy(RecoveryPolicy& primary,
                             RecoveryPolicy& fallback,
                             GuardedPolicyConfig config)
    : primary_(primary), fallback_(fallback), config_(config) {
  AER_CHECK_GE(config_.window, 1);
  AER_CHECK_GT(config_.regression_ratio, 1.0);
  AER_CHECK_GE(config_.baseline_mean_downtime, 0.0);
  AER_CHECK_GE(config_.probation, 1);
  MutexLock lock(mu_);
  baseline_mean_ = config_.baseline_mean_downtime;
}

void GuardedPolicy::SetObservers(obs::TraceCollector* traces,
                                 obs::MetricsRegistry* metrics) {
  MutexLock lock(mu_);
  traces_ = traces;
  if (metrics == nullptr) {
    obs_ = ObsMetrics{};
    return;
  }
  obs_.primary_decisions =
      &metrics->GetCounter("aer_guard_primary_decisions_total");
  obs_.fallback_decisions =
      &metrics->GetCounter("aer_guard_fallback_decisions_total");
  obs_.faults_absorbed =
      &metrics->GetCounter("aer_guard_faults_absorbed_total");
  obs_.invalid_actions =
      &metrics->GetCounter("aer_guard_invalid_actions_total");
  obs_.breaker_trips = &metrics->GetCounter("aer_guard_breaker_trips_total");
  obs_.breaker_open = &metrics->GetGauge("aer_guard_breaker_open");
  obs_.breaker_open->Set(fallback_remaining_ > 0 ? 1.0 : 0.0);
}

bool GuardedPolicy::ProcessUsesFallbackLocked(const RecoveryContext& context) {
  const auto it = open_process_fallback_.find(context.machine);
  if (it != open_process_fallback_.end()) return it->second;
  // First decision of this process: bind it to the current breaker state
  // so the process is driven by one policy end to end.
  const bool use_fallback = fallback_remaining_ > 0;
  open_process_fallback_.emplace(context.machine, use_fallback);
  return use_fallback;
}

RepairAction GuardedPolicy::ChooseAction(const RecoveryContext& context) {
  bool use_fallback;
  {
    MutexLock lock(mu_);
    use_fallback = ProcessUsesFallbackLocked(context);
    if (use_fallback) {
      ++stats_.fallback_decisions;
      if (obs_.fallback_decisions) obs_.fallback_decisions->Inc();
    }
  }
  if (use_fallback) return fallback_.ChooseAction(context);

  // Decision-fault containment: a throwing or corrupted primary downgrades
  // this decision to the fallback instead of taking the pipeline down. The
  // delegate runs outside the guard mutex (it may be arbitrarily slow);
  // only the accounting afterwards relocks.
  bool faulted = false;
  RepairAction action = RepairAction::kRma;
  try {
    action = primary_.ChooseAction(context);
  } catch (...) {
    faulted = true;
  }
  const bool invalid =
      !faulted && (static_cast<int>(action) < 0 ||
                   static_cast<int>(action) >= kNumActions);
  {
    MutexLock lock(mu_);
    if (faulted) {
      ++stats_.faults_absorbed;
      if (obs_.faults_absorbed) obs_.faults_absorbed->Inc();
    } else if (invalid) {
      ++stats_.invalid_actions;
      if (obs_.invalid_actions) obs_.invalid_actions->Inc();
    }
    if (faulted || invalid) {
      RecordLocked(obs::TraceEventKind::kGuardFallback, context.now,
                   context.machine,
                   faulted ? "fault_absorbed" : "invalid_action");
      ++stats_.fallback_decisions;
      if (obs_.fallback_decisions) obs_.fallback_decisions->Inc();
    } else {
      ++stats_.primary_decisions;
      if (obs_.primary_decisions) obs_.primary_decisions->Inc();
    }
  }
  if (faulted || invalid) return fallback_.ChooseAction(context);
  return action;
}

void GuardedPolicy::RecordLocked(obs::TraceEventKind kind, SimTime now,
                                 MachineId machine, std::string_view detail) {
  if (traces_ == nullptr) return;
  obs::TraceRecord record;
  record.time = now;
  record.kind = kind;
  record.machine = machine;
  record.detail = std::string(detail);
  traces_->Record(std::move(record));
}

void GuardedPolicy::RecordPrimaryCompletionLocked(double downtime,
                                                 SimTime now) {
  window_.push_back(downtime);
  if (static_cast<int>(window_.size()) > config_.window) window_.pop_front();
  if (static_cast<int>(window_.size()) < config_.window) return;

  const double mean =
      std::accumulate(window_.begin(), window_.end(), 0.0) /
      static_cast<double>(window_.size());
  if (baseline_mean_ <= 0.0) {
    // First full window under the primary establishes what "normal" means;
    // only later windows can regress against it.
    baseline_mean_ = mean;
    return;
  }
  if (mean > config_.regression_ratio * baseline_mean_) {
    ++stats_.breaker_trips;
    fallback_remaining_ = config_.probation;
    window_.clear();
    if (obs_.breaker_trips) obs_.breaker_trips->Inc();
    if (obs_.breaker_open) obs_.breaker_open->Set(1.0);
    RecordLocked(obs::TraceEventKind::kBreakerTrip, now);
  }
}

void GuardedPolicy::OnActionOutcome(const RecoveryContext& context,
                                    RepairAction action, SimTime cost,
                                    bool cured) {
  bool fallback_driven;
  {
    MutexLock lock(mu_);
    const auto it = open_process_fallback_.find(context.machine);
    // Outcomes for processes we never decided (e.g. the manager timed out
    // an action of a process opened before this policy was installed)
    // still belong to whoever would decide now.
    fallback_driven = it != open_process_fallback_.end()
                          ? it->second
                          : fallback_remaining_ > 0;
  }
  // Delegate outside the lock; calls about one machine's process are
  // ordered by the caller (see header), so the attribution read above
  // stays valid across this call.
  if (fallback_driven) {
    fallback_.OnActionOutcome(context, action, cost, cured);
  } else {
    primary_.OnActionOutcome(context, action, cost, cured);
  }

  if (!cured) return;
  MutexLock lock(mu_);
  ++stats_.processes_observed;
  open_process_fallback_.erase(context.machine);
  if (fallback_driven) {
    if (fallback_remaining_ > 0 && --fallback_remaining_ == 0) {
      // Half-open: probation served; the primary gets a fresh window.
      window_.clear();
      if (obs_.breaker_open) obs_.breaker_open->Set(0.0);
      RecordLocked(obs::TraceEventKind::kBreakerHalfOpen, context.now);
    }
    return;
  }
  RecordPrimaryCompletionLocked(
      static_cast<double>(context.now - context.process_start), context.now);
}

}  // namespace aer
