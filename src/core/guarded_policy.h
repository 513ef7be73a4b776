// GuardedPolicy — the runtime safety net around a deployed (usually
// trained) policy, extending the paper's hybrid fallback (Section 3.4) from
// a coverage mechanism into a fault-tolerance mechanism.
//
// The hybrid policy answers "what if the trained policy has no opinion";
// the guarded policy answers "what if the trained policy is *wrong* or
// *broken*". Two layers (docs/ROBUSTNESS.md):
//
//   1. Decision faults. If the primary policy throws, or returns an action
//      outside the repertoire (a symptom of a corrupted Q-table or policy
//      file), the decision silently comes from the fallback instead and the
//      fault is counted. A policy fault can degrade service quality, never
//      crash the recovery pipeline.
//   2. Regression circuit breaker. The realized downtime of completed
//      primary-driven processes is tracked in a sliding window; when its
//      mean regresses past `regression_ratio` times the baseline (learned
//      from the primary's own first window, or pinned by config), the
//      breaker trips and routes whole processes to the fallback for
//      `probation` completions, then half-opens and gives the primary
//      another window. This is the operational answer to a policy trained
//      on stale data: the system demotes it automatically instead of
//      waiting for a human to notice the downtime graph.
//
// Decisions are attributed per process: a process started under the
// primary stays with the primary even if the breaker trips mid-process, so
// outcome feedback and window accounting never mix the two policies.
//
// Thread safety: the breaker state is guarded by an internal mutex, so
// concurrent ChooseAction/OnActionOutcome calls (e.g. one guard shared by
// parallel harness shards) keep the counters and window consistent. The
// lock is never held across a delegate policy call; the delegates
// themselves must be thread-safe (or externally serialized) for concurrent
// use. Calls about a single machine's process must still be ordered by the
// caller, as the manager's event loop naturally does.
#ifndef AER_CORE_GUARDED_POLICY_H_
#define AER_CORE_GUARDED_POLICY_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <unordered_map>

#include "cluster/policy.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"

namespace aer {

struct GuardedPolicyConfig {
  // Sliding window length and the minimum samples before the breaker may
  // trip (both counted in completed primary-driven processes).
  int window = 16;
  // Trip when window mean downtime > regression_ratio * baseline mean.
  double regression_ratio = 1.5;
  // Baseline mean downtime per process. 0 = learn it from the primary's
  // first full window (during which the breaker cannot trip).
  double baseline_mean_downtime = 0.0;
  // Completed fallback-driven processes before the breaker half-opens and
  // the primary is retried.
  int probation = 32;
};

class GuardedPolicy final : public RecoveryPolicy {
 public:
  // Both referenced policies must outlive the guard.
  GuardedPolicy(RecoveryPolicy& primary, RecoveryPolicy& fallback,
                GuardedPolicyConfig config = {});

  // Attaches observability sinks (either may be null; both must outlive the
  // guard). Mirrors the Stats counters into aer_guard_* metrics, keeps the
  // aer_guard_breaker_open gauge current, and records each absorbed fault
  // (kGuardFallback) and breaker trip / half-open transition as a global
  // trace record.
  void SetObservers(obs::TraceCollector* traces,
                    obs::MetricsRegistry* metrics);

  RepairAction ChooseAction(const RecoveryContext& context) override;

  void OnActionOutcome(const RecoveryContext& context, RepairAction action,
                       SimTime cost, bool cured) override;

  std::string_view name() const override { return "guarded"; }

  // True while the circuit breaker routes new processes to the fallback.
  bool using_fallback() const {
    MutexLock lock(mu_);
    return fallback_remaining_ > 0;
  }

  struct Stats {
    std::int64_t primary_decisions = 0;
    std::int64_t fallback_decisions = 0;
    std::int64_t faults_absorbed = 0;   // exceptions from the primary
    std::int64_t invalid_actions = 0;   // out-of-range actions from primary
    std::int64_t breaker_trips = 0;
    std::int64_t processes_observed = 0;
  };
  // Consistent copy of the counters (by value: the guard may keep mutating
  // while the caller inspects its snapshot).
  Stats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }
  double baseline_mean_downtime() const {
    MutexLock lock(mu_);
    return baseline_mean_;
  }

 private:
  // True if this machine's open process is routed to the fallback.
  bool ProcessUsesFallbackLocked(const RecoveryContext& context)
      AER_REQUIRES(mu_);

  void RecordPrimaryCompletionLocked(double downtime, SimTime now)
      AER_REQUIRES(mu_);

  // Appends one global trace record (no-op without a collector).
  void RecordLocked(obs::TraceEventKind kind, SimTime now,
                    MachineId machine = -1, std::string_view detail = {})
      AER_REQUIRES(mu_);

  RecoveryPolicy& primary_;
  RecoveryPolicy& fallback_;
  GuardedPolicyConfig config_;

  // Guards the breaker state below. Never held across a delegate call
  // (primary_/fallback_ may be arbitrarily slow or reentrant); the sinks
  // behind traces_/obs_ take only their own locks, so the one-way
  // guard -> sink ordering cannot deadlock.
  mutable Mutex mu_;

  // Per-machine attribution for the machines with open processes; erased on
  // process completion, so it cannot grow past the number of concurrently
  // sick machines.
  std::unordered_map<MachineId, bool> open_process_fallback_
      AER_GUARDED_BY(mu_);

  // Recent primary-driven process downtimes.
  std::deque<double> window_ AER_GUARDED_BY(mu_);
  // 0 until learned/configured.
  double baseline_mean_ AER_GUARDED_BY(mu_) = 0.0;
  // >0: breaker open, counts down probation.
  int fallback_remaining_ AER_GUARDED_BY(mu_) = 0;
  Stats stats_ AER_GUARDED_BY(mu_);

  obs::TraceCollector* traces_ AER_GUARDED_BY(mu_) = nullptr;
  // Cached metric handles (see RecoveryManager::SetObservers); all null
  // when no registry is attached.
  struct ObsMetrics {
    obs::Counter* primary_decisions = nullptr;
    obs::Counter* fallback_decisions = nullptr;
    obs::Counter* faults_absorbed = nullptr;
    obs::Counter* invalid_actions = nullptr;
    obs::Counter* breaker_trips = nullptr;
    obs::Gauge* breaker_open = nullptr;
  };
  ObsMetrics obs_ AER_GUARDED_BY(mu_);
};

}  // namespace aer

#endif  // AER_CORE_GUARDED_POLICY_H_
