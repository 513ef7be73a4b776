// Generalized action-relationship model — the paper's future-work item
// "introducing more complicated relationships among actions" (Section 7).
//
// Hypothesis 2 assumes a total order: a stronger action can always replace a
// weaker one. Real repair actions are not always nested (a REIMAGE wipes
// the disk but does not power-cycle a wedged NIC the way a REBOOT does).
// CapabilityModel captures an arbitrary reflexive "covers" relation with
// manual repair as the universal top element; the total order remains the
// default used everywhere unless a caller opts in.
#ifndef AER_SIM_CAPABILITY_H_
#define AER_SIM_CAPABILITY_H_

#include <array>
#include <cstdint>

#include "log/action.h"

namespace aer {

// A multiset of repair actions as per-kind counts, indexed by ActionIndex.
using ActionCounts = std::array<int, kNumActions>;

class CapabilityModel {
 public:
  // The paper's hypothesis 2: covers(a, b) <=> strength(a) >= strength(b).
  static const CapabilityModel& TotalOrder();

  // Only an action of the same kind (or manual repair) replaces an action:
  // hypothesis 2 switched off, used by the ablation bench.
  static const CapabilityModel& IdentityOnly();

  // Arbitrary relation; Validate()d: must be reflexive and RMA must cover
  // everything (manual repair fixes anything a machine action fixes).
  static CapabilityModel FromMatrix(
      const std::array<std::array<bool, kNumActions>, kNumActions>& covers);

  // True if executing `executed` satisfies a requirement for `required`.
  bool Covers(RepairAction executed, RepairAction required) const {
    return covers_[static_cast<std::size_t>(ActionIndex(executed))]
                  [static_cast<std::size_t>(ActionIndex(required))];
  }

  // Hypotheses 1+2 under this relation: whether the executed multiset (as
  // per-kind counts) can be assigned injectively to the required one, each
  // requirement to an executed action that covers it. Decided without
  // allocating, by Hall's condition over the (at most 15) non-empty sets of
  // required kinds. Exact for any relation, because requirements of
  // one kind share their neighbourhood, so the tightest Hall set for a
  // choice of kinds takes every requirement of those kinds.
  bool CoversCounts(const ActionCounts& executed,
                    const ActionCounts& required) const;

  void Validate() const;

 private:
  CapabilityModel() = default;

  std::array<std::array<bool, kNumActions>, kNumActions> covers_ = {};
  // For a set of required kinds (bit r = kind r), the executed kinds that
  // cover at least one of them: bit e is set iff Covers(e, r) for some r.
  std::array<std::uint8_t, 1u << kNumActions> neighbours_of_ = {};
};

}  // namespace aer

#endif  // AER_SIM_CAPABILITY_H_
