// NetPerturber — deterministic network- and node-fault injection for a small
// set of control-plane nodes (coordinators), addressed by dense integer ids,
// and for the hops between those nodes and fleet machines. The ctrl layer
// routes every coordinator-to-coordinator message through Route(), every
// machine hop (monitoring reports, dispatches, results) through
// RouteMachineHop(), and drives scripted node crashes/restarts and link
// partitions through AdvanceTo().
//
// Two fault families:
//   - Scripted (exact sim-times, declared up front): node crash/restart and
//     symmetric or asymmetric link partitions between node groups. These
//     model the scenarios the control plane must provably survive
//     (docs/CONTROL_PLANE.md failure matrix).
//   - Probabilistic (seeded): per-message drop / delay / duplication on
//     coordinator links (heartbeats, votes, replication) and, separately, on
//     machine hops, plus one machine-side arm: a non-curing action that
//     reports success anyway (FalseSuccess()).
//
// The perturber knows nothing about message contents or the ctrl layer —
// it operates on (from, to) node-id pairs only, which is what keeps it in
// src/inject below ctrl in the layering manifest.
#ifndef AER_INJECT_NET_PERTURBER_H_
#define AER_INJECT_NET_PERTURBER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "obs/metrics.h"

namespace aer {

// One scripted node outage: the node is down in [at, restart_at); a negative
// restart_at means it never comes back within the run.
struct NodeCrash {
  SimTime at = 0;
  int node = -1;
  SimTime restart_at = -1;
};

// One scripted partition window [from, until): messages between side_a and
// side_b are dropped. Symmetric by default; `asymmetric` blocks only the
// a -> b direction (b can still reach a), modeling one-way link loss.
struct LinkPartition {
  SimTime from = 0;
  SimTime until = 0;
  std::vector<int> side_a;
  std::vector<int> side_b;
  bool asymmetric = false;
};

struct NetFaultScript {
  std::vector<NodeCrash> crashes;
  std::vector<LinkPartition> partitions;
};

struct NetPerturbConfig {
  std::uint64_t seed = 20070625;
  // Probabilistic per-message arms (0 disables; no RNG is consumed while
  // every probability is 0, so fault-free runs stay bit-identical across
  // cluster sizes).
  double drop_message = 0.0;
  double delay_message = 0.0;
  double duplicate_message = 0.0;
  SimTime max_delay = 10;

  // Machine-network arms, applied by RouteMachineHop() to the hops between
  // the control plane and fleet machines (symptom reports, dispatches,
  // results). Defaults keep the machine network reliable — and consume no
  // RNG — so enabling coordinator-link chaos alone reproduces historical
  // runs byte-for-byte. A dropped dispatch is the hung action of the
  // degradation ladder: the machine never runs it and the issuer hears
  // nothing until its timeout.
  double drop_machine_hop = 0.0;
  double delay_machine_hop = 0.0;
  double duplicate_machine_hop = 0.0;
  // A non-curing, non-RMA action reports healthy anyway (drawn by
  // FalseSuccess(); no RNG while 0).
  double false_success = 0.0;
};

// A transition AdvanceTo() applied while catching up to `now`.
struct NetTransition {
  enum class Kind : int {
    kCrash = 0,
    kRestart = 1,
    kPartitionStart = 2,
    kPartitionHeal = 3,
  };
  Kind kind = Kind::kCrash;
  SimTime at = 0;
  int node = -1;        // kCrash / kRestart
  int partition = -1;   // index into the script's partitions
};

class NetPerturber {
 public:
  NetPerturber(NetPerturbConfig config, NetFaultScript script);

  // Attaches the metrics registry (may be null; must outlive the
  // perturber). Injection counts mirror into aer_inject_net_* /
  // aer_inject_partitions_* / aer_inject_coordinator_* metrics. The
  // machine-side arms mirror into aer_inject_events_*_total and
  // aer_inject_false_successes_total, each registered only while its arm is
  // enabled, so an arms-off run exports the same registry as before the
  // arms existed. The control plane harness records crashes and restarts as
  // trace records.
  void SetMetrics(obs::MetricsRegistry* metrics);

  // Applies every scripted transition with time <= now (in time order,
  // crashes before partitions at equal times) and returns them, so the
  // caller can reset crashed nodes' volatile state. Must be called with
  // non-decreasing `now`.
  std::vector<NetTransition> AdvanceTo(SimTime now);

  // Node liveness / link state as of the last AdvanceTo().
  bool NodeUp(int node) const;
  bool LinkOpen(int from, int to) const;

  // Routing verdict for one message sent at `now` (call AdvanceTo(now)
  // first). A closed link or down endpoint drops deterministically; the
  // probabilistic arms then apply in drop -> delay -> duplicate order.
  struct Routing {
    bool deliver = false;
    SimTime at = 0;       // delivery time (>= now + base latency)
    bool duplicated = false;
    SimTime duplicate_at = 0;
  };
  Routing Route(SimTime now, int from, int to, SimTime base_latency);

  // Routing verdict for one control-plane<->machine hop. Machines are not
  // membership nodes, so liveness/partition state does not apply — only the
  // probabilistic machine-hop arms (drop -> delay -> duplicate), which
  // consume RNG only when enabled.
  Routing RouteMachineHop(SimTime now, SimTime base_latency);

  // Whether a non-curing, non-RMA action that just finished reports healthy
  // anyway. Draws RNG only while the false_success arm is enabled.
  bool FalseSuccess();

  struct Stats {
    std::int64_t messages_routed = 0;
    std::int64_t machine_hops_routed = 0;
    std::int64_t machine_drops = 0;
    std::int64_t machine_delays = 0;
    std::int64_t machine_duplicates = 0;
    std::int64_t false_successes = 0;
    std::int64_t partition_drops = 0;  // closed link or down endpoint
    std::int64_t random_drops = 0;
    std::int64_t delays = 0;
    std::int64_t duplicates = 0;
    std::int64_t crashes = 0;
    std::int64_t restarts = 0;
    std::int64_t partitions_started = 0;
    std::int64_t partitions_healed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PendingTransition {
    SimTime at = 0;
    int order = 0;  // stable tie-break at equal times
    NetTransition transition;
  };

  void Apply(const NetTransition& transition);

  NetPerturbConfig config_;
  NetFaultScript script_;
  Rng rng_;
  std::vector<PendingTransition> pending_;  // ascending, consumed from front
  std::size_t next_pending_ = 0;
  std::vector<int> down_nodes_;             // currently crashed
  std::vector<int> active_partitions_;      // indices into script_.partitions
  Stats stats_;

  struct ObsMetrics {
    obs::Counter* partition_drops = nullptr;
    obs::Counter* random_drops = nullptr;
    obs::Counter* delays = nullptr;
    obs::Counter* duplicates = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Counter* partitions_started = nullptr;
    obs::Counter* partitions_healed = nullptr;
    obs::Counter* machine_drops = nullptr;
    obs::Counter* machine_delays = nullptr;
    obs::Counter* machine_duplicates = nullptr;
    obs::Counter* false_successes = nullptr;
  };
  ObsMetrics obs_;
};

}  // namespace aer

#endif  // AER_INJECT_NET_PERTURBER_H_
