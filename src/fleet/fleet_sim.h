// The discrete-event cluster simulator (cluster/sim_types.h holds its
// config and result types): a timing-wheel scheduler, SoA machine state,
// and sharded execution.
//
// The fleet is split into contiguous machine-ID shards; each machine owns
// an independent RNG stream (DeriveStream(seed, machine)) and its own
// Poisson arrival chain at rate 1/mtbf. Shards run on the fork-join
// ThreadPool (or serially without one) and a stable time-bucket merge of
// their runs in machine-ID order (common/time_merge.h) assembles the
// result, so the RecoveryLog and SimulationResult are byte-identical for
// ANY thread count and ANY shard count
// (docs/FLEET_SIM.md). A fault arriving at a machine that is already down
// is skipped and counted in fault_arrivals_skipped.
//
// With a pool, Run() invokes the policy concurrently from shard threads,
// so it requires ChooseAction to be pure (the documented RecoveryPolicy
// contract) and OnActionOutcome to be state-free. All shipped stateless
// policies (UserDefinedPolicy, TrainedPolicy, HybridPolicy) qualify.
// Learning policies (rl/online_policy.h) pass no pool: shards then run one
// after another, and a one-shard fleet sees its events in global time
// order.
#ifndef AER_FLEET_FLEET_SIM_H_
#define AER_FLEET_FLEET_SIM_H_

#include <cstdint>

#include "cluster/fault_model.h"
#include "cluster/fleet_state.h"
#include "cluster/policy.h"
#include "cluster/sim_types.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"

namespace aer::fleet {

// Interned symptom-id / fault-sampling tables shared by all shards of one
// run, and one shard's output; defined in fleet_sim.cc.
struct FleetSimTables;
struct ShardOutput;

struct FleetSimConfig {
  // The workload parameters.
  ClusterSimConfig sim;
  // Shard count for Run(). <= 0 derives a count from the fleet size alone
  // (deterministic in the config, never in the host's core count — shard
  // boundaries feed nothing into the output, but keeping the resolved
  // value config-pure keeps the aer_fleet_shards gauge reproducible).
  int num_shards = 0;
};

class FleetSimulator {
 public:
  FleetSimulator(FleetSimConfig config, FaultCatalog catalog);

  // Sharded run. `pool` supplies the worker threads (the calling thread
  // participates); nullptr runs the shards serially, in shard order, which
  // is what learning policies need. Output is identical either way.
  SimulationResult Run(RecoveryPolicy& policy, ThreadPool* pool = nullptr);

  // Optional observability sink: the aer_fleet_* metrics are folded in
  // after the run, so instrumentation never feeds back into the simulation
  // and instrumented runs produce identical logs. The registry must
  // outlive the runs.
  void SetMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  // Optional causal trace sink (must outlive the runs; null disables).
  // Each recovery process whose deterministic id passes the collector's
  // head sampling contributes incident/symptom/action/cure records,
  // buffered per shard and merged after the pool barrier (MergeShards) —
  // so the collector contents are byte-identical for any thread count.
  void SetTraceCollector(obs::TraceCollector* traces) { traces_ = traces; }

  const FaultCatalog& catalog() const { return catalog_; }

  // The shard count Run() will use (config_.num_shards resolved).
  int num_shards() const;

 private:
  ShardOutput RunShard(int shard, int num_shards, const FleetSimTables& tables,
                       FleetState& state, RecoveryPolicy& policy) const;
  // Merges the shard outputs in shard (machine-ID) order, on `pool` when
  // there is one, and folds the metrics.
  SimulationResult Finalize(std::vector<ShardOutput> outputs,
                            SymptomTable symptoms, ThreadPool* pool);

  FleetSimConfig config_;
  FaultCatalog catalog_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceCollector* traces_ = nullptr;
};

}  // namespace aer::fleet

#endif  // AER_FLEET_FLEET_SIM_H_
