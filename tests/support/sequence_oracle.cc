#include "support/sequence_oracle.h"

#include <array>

#include "common/check.h"

namespace aer {

double SequenceCostOnReplay(std::span<const RepairAction> sequence,
                            ProcessReplay& replay, ErrorTypeId type,
                            const CostEstimator& estimator, int max_actions,
                            bool* cured_by_sequence) {
  AER_CHECK_GE(max_actions, 1);
  AER_CHECK_EQ(replay.steps(), 0) << "the replay must be fresh or Reset()";
  // A sequence stops at a cure and at the manual-repair cap.
  const auto can_step = [&replay, max_actions] {
    return !replay.cured() && replay.steps() < max_actions - 1;
  };
  RepairAction strongest = RepairAction::kTryNop;
  std::array<int, kNumActions> used = {};
  for (RepairAction a : sequence) {
    if (!can_step()) break;
    replay.Step(a);
    ++used[static_cast<std::size_t>(ActionIndex(a))];
    if (ActionStrength(a) > ActionStrength(strongest)) strongest = a;
  }
  if (cured_by_sequence != nullptr) *cured_by_sequence = replay.cured();
  if (!replay.cured()) {
    // Keep escalating from the strongest level the sequence reached, with
    // each level tried up to twice overall (counting the sequence's own
    // uses of it), manual repair once.
    for (RepairAction a : estimator.ObservedActions(type)) {
      if (!AtLeastAsStrong(a, strongest)) continue;
      const int budget = a == RepairAction::kRma ? 1 : 2;
      const int tries =
          budget - used[static_cast<std::size_t>(ActionIndex(a))];
      for (int i = 0; i < tries && can_step(); ++i) replay.Step(a);
      if (replay.cured()) break;
    }
  }
  if (!replay.cured()) {
    replay.Step(RepairAction::kRma);  // forced manual repair at the cap
  }
  return replay.total_cost();
}

}  // namespace aer
