#include "sim/capability.h"

#include "common/check.h"

namespace aer {
namespace {

constexpr auto kKinds = static_cast<std::size_t>(kNumActions);

}  // namespace

const CapabilityModel& CapabilityModel::TotalOrder() {
  static const CapabilityModel model = [] {
    std::array<std::array<bool, kNumActions>, kNumActions> covers = {};
    for (int e = 0; e < kNumActions; ++e) {
      for (int r = 0; r < kNumActions; ++r) {
        covers[static_cast<std::size_t>(e)][static_cast<std::size_t>(r)] =
            e >= r;
      }
    }
    return FromMatrix(covers);
  }();
  return model;
}

const CapabilityModel& CapabilityModel::IdentityOnly() {
  static const CapabilityModel model = [] {
    std::array<std::array<bool, kNumActions>, kNumActions> covers = {};
    for (int e = 0; e < kNumActions; ++e) {
      covers[static_cast<std::size_t>(e)][static_cast<std::size_t>(e)] = true;
    }
    // Manual repair remains the top element.
    const auto rma = static_cast<std::size_t>(ActionIndex(RepairAction::kRma));
    for (int r = 0; r < kNumActions; ++r) {
      covers[rma][static_cast<std::size_t>(r)] = true;
    }
    return FromMatrix(covers);
  }();
  return model;
}

CapabilityModel CapabilityModel::FromMatrix(
    const std::array<std::array<bool, kNumActions>, kNumActions>& covers) {
  CapabilityModel m;
  m.covers_ = covers;
  for (std::size_t kinds = 0; kinds < m.neighbours_of_.size(); ++kinds) {
    for (std::size_t r = 0; r < kKinds; ++r) {
      if ((kinds >> r & 1u) == 0) continue;
      for (std::size_t e = 0; e < kKinds; ++e) {
        if (covers[e][r]) {
          m.neighbours_of_[kinds] |= static_cast<std::uint8_t>(1u << e);
        }
      }
    }
  }
  m.Validate();
  return m;
}

bool CapabilityModel::CoversCounts(const ActionCounts& executed,
                                   const ActionCounts& required) const {
  // Hall's theorem: every requirement can be matched to a distinct covering
  // executed action iff each set of requirements has at least as many
  // executed actions in its neighbourhood. Only sets of kinds that are
  // actually required can be violated.
  unsigned required_kinds = 0;
  for (std::size_t r = 0; r < kKinds; ++r) {
    if (required[r] > 0) required_kinds |= 1u << r;
  }
  for (unsigned kinds = required_kinds; kinds != 0;
       kinds = (kinds - 1) & required_kinds) {
    int need = 0;
    for (std::size_t r = 0; r < kKinds; ++r) {
      if ((kinds >> r & 1u) != 0) need += required[r];
    }
    const unsigned neighbours = neighbours_of_[kinds];
    int have = 0;
    for (std::size_t e = 0; e < kKinds; ++e) {
      if ((neighbours >> e & 1u) != 0) have += executed[e];
    }
    if (have < need) return false;
  }
  return true;
}

void CapabilityModel::Validate() const {
  for (int a = 0; a < kNumActions; ++a) {
    AER_CHECK(covers_[static_cast<std::size_t>(a)]
                     [static_cast<std::size_t>(a)]);  // reflexive
    AER_CHECK(covers_[static_cast<std::size_t>(ActionIndex(
        RepairAction::kRma))][static_cast<std::size_t>(a)]);
  }
}

}  // namespace aer
