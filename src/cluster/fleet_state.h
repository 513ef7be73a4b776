// Structure-of-arrays machine state for the cluster simulator.
//
// A vector of per-machine structs with two heap-allocated vectors each
// (tried actions, emitted symptoms) costs three pointer chases and an
// allocator round-trip per process at 10^6 machines. Here every field
// lives in its own flat array and the per-process sequences live in
// fixed-stride flat pools (capacity is bounded by config: at most
// max_actions_per_process actions, and at most 1 + max-secondary-symptoms
// re-emittable symptoms per process), so a shard's event handlers touch a
// handful of contiguous cache lines and never allocate. The per-process
// counts are 16-bit, so the constructor bounds both capacities by
// UINT16_MAX.
//
// Thread-safety: a FleetState is plain data with no internal locking. The
// sharded engine gives each shard a disjoint machine-id range; writes to
// distinct elements of the same array are distinct memory locations, so
// concurrent shards are race-free by partitioning (docs/FLEET_SIM.md).
#ifndef AER_CLUSTER_FLEET_STATE_H_
#define AER_CLUSTER_FLEET_STATE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "log/action.h"
#include "log/log_entry.h"
#include "log/symptom.h"

namespace aer {

class FleetState {
 public:
  struct Layout {
    int num_machines = 0;
    // Per-process action capacity == ClusterSimConfig::max_actions_per_process
    // (the RMA cap guarantees the sequence never grows past it).
    int tried_capacity = 0;
    // Per-process re-emittable symptom capacity: primary + secondary
    // symptoms of the largest fault (generic/cross-fault noise is emitted
    // but never recorded for re-emission).
    int emitted_capacity = 0;
  };

  explicit FleetState(const Layout& layout);

  int num_machines() const { return layout_.num_machines; }

  bool healthy(MachineId m) const { return healthy_[Idx(m)] != 0; }
  void set_healthy(MachineId m, bool h) {
    healthy_[Idx(m)] = h ? 1 : 0;
  }

  bool noisy(MachineId m) const { return noisy_[Idx(m)] != 0; }
  void set_noisy(MachineId m, bool n) { noisy_[Idx(m)] = n ? 1 : 0; }

  double speed(MachineId m) const { return speed_[Idx(m)]; }
  void set_speed(MachineId m, double s) { speed_[Idx(m)] = s; }

  std::uint32_t process_seq(MachineId m) const { return process_seq_[Idx(m)]; }
  void bump_process_seq(MachineId m) { ++process_seq_[Idx(m)]; }

  std::int32_t fault_index(MachineId m) const { return fault_index_[Idx(m)]; }
  void set_fault_index(MachineId m, std::int32_t f) { fault_index_[Idx(m)] = f; }

  SimTime process_start(MachineId m) const { return process_start_[Idx(m)]; }
  void set_process_start(MachineId m, SimTime t) { process_start_[Idx(m)] = t; }

  SimTime last_action_start(MachineId m) const {
    return last_action_start_[Idx(m)];
  }
  void set_last_action_start(MachineId m, SimTime t) {
    last_action_start_[Idx(m)] = t;
  }

  SimTime last_recovery_end(MachineId m) const {
    return last_recovery_end_[Idx(m)];
  }
  void set_last_recovery_end(MachineId m, SimTime t) {
    last_recovery_end_[Idx(m)] = t;
  }

  // Resets the per-process sequences (tried actions, emitted symptoms).
  void ClearProcess(MachineId m) {
    tried_count_[Idx(m)] = 0;
    emitted_count_[Idx(m)] = 0;
  }

  int tried_count(MachineId m) const { return tried_count_[Idx(m)]; }
  const RepairAction* tried_data(MachineId m) const {
    return tried_.data() + Idx(m) * static_cast<std::size_t>(layout_.tried_capacity);
  }
  void PushTried(MachineId m, RepairAction a) {
    const int n = tried_count_[Idx(m)];
    AER_CHECK_LT(n, layout_.tried_capacity);
    tried_[Idx(m) * static_cast<std::size_t>(layout_.tried_capacity) +
           static_cast<std::size_t>(n)] = a;
    ++tried_count_[Idx(m)];
  }

  int emitted_count(MachineId m) const { return emitted_count_[Idx(m)]; }
  SymptomId emitted_at(MachineId m, int i) const {
    AER_DCHECK_GE(i, 0);
    AER_DCHECK_LT(i, emitted_count_[Idx(m)]);
    return emitted_[Idx(m) * static_cast<std::size_t>(layout_.emitted_capacity) +
                    static_cast<std::size_t>(i)];
  }
  void PushEmitted(MachineId m, SymptomId s) {
    const int n = emitted_count_[Idx(m)];
    AER_CHECK_LT(n, layout_.emitted_capacity);
    emitted_[Idx(m) * static_cast<std::size_t>(layout_.emitted_capacity) +
             static_cast<std::size_t>(n)] = s;
    ++emitted_count_[Idx(m)];
  }

 private:
  std::size_t Idx(MachineId m) const {
    AER_DCHECK_GE(m, 0);
    AER_DCHECK_LT(m, layout_.num_machines);
    return static_cast<std::size_t>(m);
  }

  Layout layout_;
  std::vector<std::uint8_t> healthy_;
  std::vector<std::uint8_t> noisy_;
  std::vector<double> speed_;
  std::vector<std::uint32_t> process_seq_;
  std::vector<std::int32_t> fault_index_;
  std::vector<SimTime> process_start_;
  std::vector<SimTime> last_action_start_;
  std::vector<SimTime> last_recovery_end_;
  std::vector<RepairAction> tried_;       // stride = tried_capacity
  std::vector<std::uint16_t> tried_count_;
  std::vector<SymptomId> emitted_;        // stride = emitted_capacity
  std::vector<std::uint16_t> emitted_count_;
};

}  // namespace aer

#endif  // AER_CLUSTER_FLEET_STATE_H_
