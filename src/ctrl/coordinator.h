// Coordinator — one control-plane node: a membership view, the two halves
// of the quorum lease, and a CoordinatedRecoveryService, glued together by
// two entry points the simulation drives:
//
//   Tick(now)     — heartbeat fan-out, election / renewal, step-down,
//                   snapshot replication, timeout polling;
//   Deliver(now)  — one network message (heartbeat, vote traffic, replica).
//
// Both return the messages to route and the repair actions to dispatch;
// the coordinator never touches the network or the fleet directly, which
// is what lets the injection layer sit between (docs/CONTROL_PLANE.md).
//
// Election rule (deterministic by construction): a node bids iff it is the
// lowest id among the members it believes alive and it does not observe a
// live lease. Vote requests — including the candidate's own — travel
// through the network at the same latency, so an election completes at the
// same sim-time whether the cluster has 1, 3, or 5 nodes; that is what the
// takeover-determinism suite pins down.
//
// Every action dispatched carries (epoch, attempt): the epoch is the
// fencing token machines check, the attempt index is the result
// correlation id — a result for any attempt other than the newest recorded
// one is dropped as stale instead of being misattributed.
#ifndef AER_CTRL_COORDINATOR_H_
#define AER_CTRL_COORDINATOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/recovery_manager.h"
#include "ctrl/lease.h"
#include "ctrl/membership.h"
#include "ctrl/message.h"
#include "ctrl/service.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer::ctrl {

// One repair action leaving the control plane, fenced and correlated.
struct ActionDispatch {
  MachineId machine = 0;
  RepairAction action = RepairAction::kTryNop;
  Epoch epoch = 0;    // fencing token: machines reject anything stale
  int attempt = 0;    // index into the process's tried list (correlation)
  NodeId issuer = kNoNode;
  // Causal trace of the recovery process this action serves; carried to the
  // machine so its action spans join the same distributed trace.
  obs::TraceId trace = obs::kNoTrace;
};

// Everything one entry point produced; the caller owns routing/execution.
struct CoordinatorOutput {
  std::vector<Message> messages;
  std::vector<ActionDispatch> dispatches;
};

struct CoordinatorConfig {
  MembershipConfig membership;
  LeaseConfig lease;
  // Minimum wait between election bids, so in-flight vote traffic gets a
  // chance to land before the epoch is bumped again.
  SimTime election_retry = 10;
};

class Coordinator {
 public:
  // `policy` must outlive the coordinator. `durable` is the voter record
  // persisted across this node's crashes (default-constructed on first
  // boot); everything else a coordinator knows is volatile.
  Coordinator(NodeId self, int cluster_size, CoordinatorConfig config,
              RecoveryPolicy& policy, RecoveryManagerConfig manager_config,
              VoterRecord durable = {});

  // Attaches sinks (either may be null; both must outlive the coordinator),
  // forwards them to the wrapped service, and registers the aer_ctrl_*
  // metrics (docs/OBSERVABILITY.md). Leadership transitions and takeover
  // adoptions become trace records.
  void SetObservers(obs::TraceCollector* traces,
                    obs::MetricsRegistry* metrics);

  // Periodic maintenance; call at a fixed cadence per node.
  CoordinatorOutput Tick(SimTime now);

  // One message off the wire.
  CoordinatorOutput Deliver(SimTime now, const Message& message);

  // A fleet symptom reached this node (monitoring broadcasts to every
  // coordinator; only a leaseholder acts on it). `trace` is the symptom's
  // causal context, minted by the monitoring layer.
  CoordinatorOutput OnSymptom(SimTime now, MachineId machine,
                              std::string_view symptom,
                              obs::TraceContext trace = {});

  // A machine reported the outcome of a dispatched action back to its
  // issuer. `attempt` echoes the dispatch; stale echoes are dropped.
  CoordinatorOutput OnActionResult(SimTime now, MachineId machine,
                                   bool healthy, int attempt);

  bool IsLeader(SimTime now) const;
  NodeId id() const { return self_; }
  Epoch current_epoch() const { return lease_.max_seen_epoch(); }
  VoterRecord durable() const { return lease_.durable(); }

  const MembershipTable& membership() const { return membership_; }
  const LeaseTable& lease() const { return lease_; }
  const CoordinatedRecoveryService& service() const { return service_; }
  CoordinatedRecoveryService& service() { return service_; }

  struct Stats {
    std::int64_t heartbeats_sent = 0;
    std::int64_t elections_started = 0;
    std::int64_t votes_granted = 0;
    std::int64_t leases_acquired = 0;  // follower/candidate -> leader
    std::int64_t lease_renewals = 0;
    std::int64_t stepdowns = 0;        // leader -> not, lease lost
    std::int64_t takeovers = 0;        // leaderships that adopted replicas
    std::int64_t processes_adopted = 0;
    std::int64_t stale_results_dropped = 0;
  };
  Stats stats() const;

 private:
  // Leader-only: asks the service for the machine's next action and turns
  // it into a fenced dispatch. No-op when the lease gate refuses.
  void DriveLocked(SimTime now, MachineId machine, CoordinatorOutput* out)
      AER_REQUIRES(mu_);
  // Detects the not-leader -> leader edge after new grants arrived:
  // adopts the replica (takeover) and re-drives every open process.
  void CheckBecameLeaderLocked(SimTime now, CoordinatorOutput* out)
      AER_REQUIRES(mu_);
  // Detects the leader -> not edge (lease lapsed or quorum lost).
  void CheckSteppedDownLocked(SimTime now) AER_REQUIRES(mu_);
  // Mirrors membership transition counts into the aer_ctrl_* counters.
  void SyncMembershipCountersLocked() AER_REQUIRES(mu_);

  const NodeId self_;
  const int cluster_size_;
  const CoordinatorConfig config_;

  MembershipTable membership_;
  LeaseTable lease_;
  CoordinatedRecoveryService service_;

  mutable Mutex mu_;
  bool leader_ AER_GUARDED_BY(mu_) = false;
  SimTime last_bid_at_ AER_GUARDED_BY(mu_) = -1;
  Stats stats_ AER_GUARDED_BY(mu_);
  // Membership counts already mirrored to metrics.
  std::int64_t suspicions_seen_ AER_GUARDED_BY(mu_) = 0;
  std::int64_t evictions_seen_ AER_GUARDED_BY(mu_) = 0;

  obs::TraceCollector* traces_ = nullptr;
  struct ObsMetrics {
    obs::Counter* heartbeats = nullptr;
    obs::Counter* elections = nullptr;
    obs::Counter* votes_granted = nullptr;
    obs::Counter* leases_acquired = nullptr;
    obs::Counter* renewals = nullptr;
    obs::Counter* stepdowns = nullptr;
    obs::Counter* takeovers = nullptr;
    obs::Counter* adopted = nullptr;
    obs::Counter* stale_results = nullptr;
    obs::Counter* suspected = nullptr;
    obs::Counter* evicted = nullptr;
    obs::Gauge* current_epoch = nullptr;
  };
  ObsMetrics obs_;
};

}  // namespace aer::ctrl

#endif  // AER_CTRL_COORDINATOR_H_
