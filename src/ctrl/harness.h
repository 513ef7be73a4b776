// ControlPlaneHarness — the deterministic simulation that closes the loop
// around the distributed control plane: N coordinators (src/ctrl), a fleet
// of machines with scripted incidents, and a NetPerturber (src/inject)
// sitting on every coordinator-to-coordinator link and every machine hop,
// injecting crashes, restarts, partitions, and message-level faults. It is
// the repo's one fault-injection harness: with cluster_size = 1 it drives a
// single RecoveryManager through lost, late and duplicated monitoring
// reports, lost dispatches (hung actions), lost results and false success
// reports (docs/ROBUSTNESS.md).
//
// One global event queue ordered by (sim-time, FIFO seq) drives everything;
// all randomness flows through the perturber's seeded Rng, and no RNG is
// consumed while the probabilistic arms are off — which is why a fault-free
// run produces byte-identical cure times and action sequences whether the
// cluster has 1, 3, or 5 coordinators (the takeover-determinism suite).
//
// Machine model: a machine executes at most one repair action at a time
// (concurrent dispatches are dropped as busy), checks every action's epoch
// against the highest it has executed under (fencing; stale actions are
// rejected and audited), and reports each result only to the action's
// issuer — a crashed or deposed issuer simply never hears it, and the
// manager's timeout/N-cap machinery plus the symptom re-emit chain are what
// rescue the process.
//
// Termination is provable, not hopeful: RMA always cures and never lies,
// the N-cap forces it eventually, a lost RMA dispatch is re-issued after its
// timeout, re-emits re-detect anything lost or falsely reported healthy,
// leaders poll timeouts every tick, and a hard event budget converts any
// residual loop into a reported failure (all_completed = false) instead of
// a hang. Ticks shut down once the fleet is healthy, no work is in flight,
// and no open or replicated process remains unowned, so the queue drains on
// its own.
#ifndef AER_CTRL_HARNESS_H_
#define AER_CTRL_HARNESS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ctrl/auditor.h"
#include "ctrl/coordinator.h"
#include "ctrl/fence.h"
#include "ctrl/message.h"
#include "inject/net_perturber.h"
#include "obs/timeseries.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer::ctrl {

// One scripted fleet failure: at `time`, `machine` falls sick with `symptom`
// until an action of index >= `cure_strength` executes (RMA always cures).
struct ControlIncident {
  SimTime time = 0;
  MachineId machine = 0;
  std::string symptom;
  int cure_strength = 0;
};

struct ControlHarnessConfig {
  int cluster_size = 3;
  SimTime tick_interval = 5;
  // One-way latency for every hop (coordinator<->coordinator via the
  // perturber, monitoring->coordinator, coordinator->machine).
  SimTime net_latency = 1;
  SimTime reemit_interval = 15 * 60;
  std::array<SimTime, kNumActions> action_duration = {60, 900, 2 * kHour,
                                                      8 * kHour};
  // Hard stop: a run that processes more events than this is declared hung
  // (all_completed = false) instead of looping forever.
  std::size_t max_events = 2'000'000;
  CoordinatorConfig coordinator;
  // Message-level injection arms + seed (coordinator links, machine hops,
  // false success); scripted crashes/partitions come from the
  // NetFaultScript passed to the constructor.
  NetPerturbConfig net;

  // Scripted dispatch delays: the dispatch_index-th dispatch of the run
  // (0-based, dispatch_log order) is delivered `delay` seconds late. This
  // is the deterministic lever for overlapping an old leader's in-flight
  // action with its successor's epoch — the scenario fencing exists for.
  struct DispatchDelay {
    std::int64_t dispatch_index = 0;
    SimTime delay = 0;
  };
  std::vector<DispatchDelay> dispatch_delays;
};

// The one-coordinator setup that stands in for a single recovery service
// (cluster_size = 1): a one-minute tick with lease, suspicion, eviction and
// election retry scaled to it (6, 3, 12 and 2 ticks), and machine-hop delays
// of up to two ticks. Hours-long repairs under hours-long action timeouts
// then cost few protocol events, so runs stay far inside max_events.
ControlHarnessConfig OneCoordinatorConfig();

// Where and when one action actually ran — the cross-cluster-size
// determinism surface ((machine, action) only; epochs differ by design
// when faults differ).
struct ExecutedAction {
  MachineId machine = 0;
  int action = 0;  // ActionIndex
  friend bool operator==(const ExecutedAction&,
                         const ExecutedAction&) = default;
};

// Every dispatch that left a coordinator, for post-hoc assertions (e.g. "the
// isolated minority issued nothing after its lease expired").
struct DispatchRecord {
  SimTime time = 0;
  NodeId issuer = kNoNode;
  Epoch epoch = 0;
  MachineId machine = 0;
  int action = 0;
  friend bool operator==(const DispatchRecord&,
                         const DispatchRecord&) = default;
};

struct ControlHarnessResult {
  bool all_completed = false;
  std::int64_t incidents = 0;
  std::int64_t cures = 0;
  SimTime end_time = 0;
  std::size_t events_processed = 0;

  // Safety: recomputed by the independent auditor from the event stream.
  InvariantAuditor::Report audit;

  // Machine-side accounting.
  std::int64_t actions_dispatched = 0;
  std::int64_t actions_executed = 0;
  std::int64_t busy_drops = 0;
  std::int64_t stale_rejected = 0;  // fence refusals (== audit evidence)
  std::int64_t results_lost = 0;    // issuer was down at result delivery

  // Control-plane accounting, summed across every coordinator incarnation.
  Coordinator::Stats coordinators;
  std::int64_t actions_gated = 0;
  NetPerturber::Stats net;

  // Determinism surfaces (execution order).
  std::vector<ExecutedAction> executed;
  std::vector<std::pair<MachineId, SimTime>> cure_times;
  std::vector<DispatchRecord> dispatch_log;
};

class ControlPlaneHarness {
 public:
  // `policy` must outlive the harness and is shared by every coordinator's
  // manager (so a GuardedPolicy's breaker state survives takeovers, same as
  // a shared policy service would). Every scripted crash must name a node
  // below `config.cluster_size`. `manager_config.action_timeout` must be
  // > 0 whenever the script crashes nodes or machine hops can drop: a lost
  // dispatch or result is otherwise unrecoverable.
  ControlPlaneHarness(RecoveryPolicy& policy,
                      RecoveryManagerConfig manager_config,
                      ControlHarnessConfig config, NetFaultScript script);

  // Attaches sinks (either may be null; both must outlive the harness) to
  // the harness, the perturber (metrics only) and every coordinator
  // (including ones recreated after a scripted restart). With a collector,
  // each fresh incident mints a deterministic trace id from
  // (config.net.seed, machine, per-machine episode ordinal); every hop of
  // the recovery process — symptom admission, dispatch, fencing, execution,
  // result, timeout, adoption — lands in the collector as one causal DAG
  // (docs/OBSERVABILITY.md "Distributed tracing"). A null collector
  // disables tracing with zero behavioral difference.
  void SetObservers(obs::TraceCollector* traces,
                    obs::MetricsRegistry* metrics);

  // Attaches a time-series recorder (may be null; must outlive the
  // harness). Run() advances it to each event's sim time before processing
  // the event and finishes it at the final event time, so window deltas
  // line up with sim-time boundaries.
  void SetTimeSeries(obs::TimeSeriesRecorder* recorder) {
    timeseries_ = recorder;
  }

  // Runs all incidents to quiescence (or the event budget). Callable once.
  ControlHarnessResult Run(const std::vector<ControlIncident>& incidents);

  // Post-run inspection; null while the node is crashed.
  const Coordinator* coordinator(NodeId node) const {
    return coordinators_[static_cast<std::size_t>(node)].get();
  }
  const InvariantAuditor& auditor() const { return auditor_; }

 private:
  struct MachineState {
    bool sick = false;
    int cure_strength = 0;
    std::string symptom;
    bool executing = false;
    // Recovery episodes seen on this machine (fresh incidents while
    // healthy) and the trace id of the most recent one. The id survives the
    // cure so post-cure stragglers still attach to their episode.
    std::int64_t episodes = 0;
    obs::TraceId trace = obs::kNoTrace;
  };

  struct Event;

  void ApplyTransitions(SimTime now);
  bool Quiescent(SimTime now) const;

  // Recovery-related events currently scheduled (incidents, re-emits,
  // symptom deliveries, dispatches, executions, results): while any exist,
  // tick chains must stay alive. Protocol traffic (heartbeats, votes,
  // replication) deliberately does not count — a leader's own renewal round
  // is always in flight at tick time, so counting it would keep the ticks
  // alive forever; in-flight protocol messages drain harmlessly after the
  // ticks stop.
  std::int64_t work_pending_ = 0;

  const RecoveryManagerConfig manager_config_;
  const ControlHarnessConfig config_;
  RecoveryPolicy& policy_;
  NetPerturber net_;
  FenceRegistry fence_;
  InvariantAuditor auditor_;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
  std::vector<VoterRecord> durable_;  // survives each node's crashes
  std::unordered_map<MachineId, MachineState> machines_;
  // Stats of coordinator incarnations already destroyed by a crash.
  Coordinator::Stats retired_stats_;
  std::int64_t retired_gated_ = 0;

  obs::TraceCollector* traces_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* stale_rejected_metric_ = nullptr;
  obs::TimeSeriesRecorder* timeseries_ = nullptr;
};

}  // namespace aer::ctrl

#endif  // AER_CTRL_HARNESS_H_
