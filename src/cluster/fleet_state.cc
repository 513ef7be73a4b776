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
  if (layout_.with_healthy_pool) {
    pool_.resize(n);
    pool_pos_.resize(n);
    for (int m = 0; m < layout_.num_machines; ++m) {
      pool_[static_cast<std::size_t>(m)] = m;
      pool_pos_[static_cast<std::size_t>(m)] = m;
    }
  }
}

void FleetState::PoolRemove(MachineId m) {
  AER_CHECK(layout_.with_healthy_pool);
  const std::int32_t pos = pool_pos_[Idx(m)];
  AER_CHECK_GE(pos, 0);
  // Pinned swap-remove: the pool's element order feeds the victim
  // selection draw, so the moved element must be the back, into `pos`.
  const MachineId last = pool_.back();
  pool_[static_cast<std::size_t>(pos)] = last;
  pool_pos_[Idx(last)] = pos;
  pool_.pop_back();
  pool_pos_[Idx(m)] = -1;
}

void FleetState::PoolAdd(MachineId m) {
  AER_CHECK(layout_.with_healthy_pool);
  AER_CHECK_EQ(pool_pos_[Idx(m)], -1);
  pool_pos_[Idx(m)] = static_cast<std::int32_t>(pool_.size());
  pool_.push_back(m);
}

std::size_t FleetState::ApproxBytes() const {
  return healthy_.capacity() * sizeof(healthy_[0]) +
         noisy_.capacity() * sizeof(noisy_[0]) +
         speed_.capacity() * sizeof(speed_[0]) +
         process_seq_.capacity() * sizeof(process_seq_[0]) +
         fault_index_.capacity() * sizeof(fault_index_[0]) +
         process_start_.capacity() * sizeof(process_start_[0]) +
         last_action_start_.capacity() * sizeof(last_action_start_[0]) +
         last_recovery_end_.capacity() * sizeof(last_recovery_end_[0]) +
         tried_.capacity() * sizeof(tried_[0]) +
         tried_count_.capacity() * sizeof(tried_count_[0]) +
         emitted_.capacity() * sizeof(emitted_[0]) +
         emitted_count_.capacity() * sizeof(emitted_count_[0]) +
         pool_.capacity() * sizeof(MachineId) +
         pool_pos_.capacity() * sizeof(std::int32_t);
}

}  // namespace aer
