#include "cluster/fleet_state.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace aer {
namespace {

FleetState::Layout SmallLayout() {
  return FleetState::Layout{.num_machines = 2,
                            .tried_capacity = 20,
                            .emitted_capacity = 4};
}

// The per-process counts are uint16_t: the largest representable capacity
// fills completely and keeps every slot.
TEST(FleetStateTest, MaxCapacityKeepsEverySlot) {
  FleetState::Layout layout = SmallLayout();
  layout.num_machines = 1;
  layout.tried_capacity = UINT16_MAX;
  FleetState state(layout);
  state.PushTried(0, RepairAction::kReboot);
  for (int i = 1; i < UINT16_MAX; ++i) state.PushTried(0, RepairAction::kRma);
  EXPECT_EQ(state.tried_count(0), UINT16_MAX);
  EXPECT_EQ(state.tried_data(0)[0], RepairAction::kReboot);
}

// One past it would wrap the count to 0 and let PushTried overwrite slot 0,
// so the constructor refuses it — as it does a ClusterSimConfig with
// max_actions_per_process > 65535.
TEST(FleetStateDeathTest, TriedCapacityAboveUint16Dies) {
  FleetState::Layout layout = SmallLayout();
  layout.tried_capacity = UINT16_MAX + 1;
  EXPECT_DEATH(FleetState{layout},
               "AER_CHECK_LE failed: layout_\\.tried_capacity <= .*"
               "\\(65536 vs\\. 65535\\)");
}

TEST(FleetStateDeathTest, EmittedCapacityAboveUint16Dies) {
  FleetState::Layout layout = SmallLayout();
  layout.emitted_capacity = UINT16_MAX + 1;
  EXPECT_DEATH(FleetState{layout},
               "AER_CHECK_LE failed: layout_\\.emitted_capacity <= .*"
               "\\(65536 vs\\. 65535\\)");
}

}  // namespace
}  // namespace aer
