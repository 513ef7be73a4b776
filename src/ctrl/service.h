// CoordinatedRecoveryService — a RecoveryManager (policy chain intact, so a
// GuardedPolicy wrapping the learned policy keeps its circuit-breaker role)
// that will only act while its coordinator holds the cluster lease. Every
// mutating entry point re-checks the LeaseTable at call time: between the
// lease lapsing and the coordinator noticing, calls are gated (counted, not
// executed), so a partitioned leader stops issuing actions *before* its
// lease expires rather than after it learns it was deposed.
//
// The service also carries the replication state that makes takeover a
// *resume*: the leader exports open-process snapshots (version-bumped on
// every publication), followers install the newest version they see, and a
// follower that wins an election adopts the replica into its own manager —
// tried actions keep counting toward the N-cap and the policy sees the full
// attempt history instead of a fresh process (docs/CONTROL_PLANE.md).
#ifndef AER_CTRL_SERVICE_H_
#define AER_CTRL_SERVICE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/recovery_manager.h"
#include "ctrl/lease.h"
#include "ctrl/message.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer::ctrl {

class CoordinatedRecoveryService {
 public:
  // `policy` and `lease` must outlive the service; `lease` is the owning
  // coordinator's table, consulted on every mutating call.
  CoordinatedRecoveryService(RecoveryPolicy& policy,
                             RecoveryManagerConfig manager_config,
                             const LeaseTable& lease);

  // Forwards sinks to the wrapped manager and registers the aer_ctrl_*
  // gating/replication metrics (docs/OBSERVABILITY.md).
  void SetObservers(obs::TraceCollector* traces,
                    obs::MetricsRegistry* metrics);

  // ---- Lease-gated manager surface -------------------------------------
  // Each returns whether the call was admitted; a gated call leaves the
  // manager untouched and bumps actions_gated.
  bool OnSymptom(SimTime now, MachineId machine, std::string_view symptom,
                 obs::TraceContext trace = {});
  std::optional<RepairAction> OnRecoveryNeeded(SimTime now,
                                               MachineId machine);
  bool OnActionResult(SimTime now, MachineId machine, bool healthy);
  std::vector<MachineId> PollTimeouts(SimTime now);

  // ---- Replication -----------------------------------------------------
  // Leader side: the current open-process image plus a freshly bumped
  // version, for broadcast to followers. Not lease-gated (exporting is
  // read-only and harmless).
  std::uint64_t PublishSnapshot(std::vector<OpenProcessSnapshot>* out);

  // Follower side: keeps the newest version seen. Returns true if
  // installed (version advanced), false if stale.
  bool InstallReplica(std::uint64_t version,
                      std::vector<OpenProcessSnapshot> snapshot);

  // New-leader side: folds the stored replica into the manager. Processes
  // already open locally are left alone; each adoption resumes the previous
  // leader's process. Returns the adopted machines in replica order.
  std::vector<MachineId> AdoptReplica(SimTime now);

  std::uint64_t replica_version() const;
  std::size_t replica_entries() const;

  const RecoveryManager& manager() const { return manager_; }
  RecoveryManager& manager() { return manager_; }

  std::int64_t actions_gated() const;

 private:
  bool Admitted(SimTime now);

  RecoveryManager manager_;
  const LeaseTable& lease_;

  mutable Mutex mu_;
  std::uint64_t replica_version_ AER_GUARDED_BY(mu_) = 0;
  std::vector<OpenProcessSnapshot> replica_ AER_GUARDED_BY(mu_);
  std::int64_t actions_gated_ AER_GUARDED_BY(mu_) = 0;

  struct ObsMetrics {
    obs::Counter* gated = nullptr;
    obs::Counter* snapshots_installed = nullptr;
  };
  ObsMetrics obs_;
};

}  // namespace aer::ctrl

#endif  // AER_CTRL_SERVICE_H_
