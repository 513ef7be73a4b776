#include "cluster/fleet_state.h"

namespace aer {

FleetState::FleetState(const Layout& layout) : layout_(layout) {
  AER_CHECK_GT(layout_.num_machines, 0);
  AER_CHECK_GT(layout_.tried_capacity, 0);
  AER_CHECK_GT(layout_.emitted_capacity, 0);
  // tried_count_/emitted_count_ are uint16_t: a larger capacity would wrap
  // the count and let Push* overwrite slot 0.
  AER_CHECK_LE(layout_.tried_capacity, UINT16_MAX);
  AER_CHECK_LE(layout_.emitted_capacity, UINT16_MAX);
  const std::size_t n = static_cast<std::size_t>(layout_.num_machines);
  healthy_.assign(n, 1);
  noisy_.assign(n, 0);
  speed_.assign(n, 1.0);
  process_seq_.assign(n, 0);
  fault_index_.assign(n, -1);
  process_start_.assign(n, 0);
  last_action_start_.assign(n, 0);
  last_recovery_end_.assign(n, -1);
  tried_.assign(n * static_cast<std::size_t>(layout_.tried_capacity),
                RepairAction::kTryNop);
  tried_count_.assign(n, 0);
  emitted_.assign(n * static_cast<std::size_t>(layout_.emitted_capacity),
                  kInvalidSymptom);
  emitted_count_.assign(n, 0);
}

}  // namespace aer
