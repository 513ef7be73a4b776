#include "sim/capability.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/hypotheses.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;
constexpr auto A = RepairAction::kRma;

TEST(CapabilityModelTest, TotalOrderMatchesStrength) {
  const CapabilityModel& model = CapabilityModel::TotalOrder();
  for (RepairAction e : kAllActions) {
    for (RepairAction r : kAllActions) {
      EXPECT_EQ(model.Covers(e, r), AtLeastAsStrong(e, r));
    }
  }
}

TEST(CapabilityModelTest, IdentityOnlyCoversSelfAndRmaCoversAll) {
  const CapabilityModel& model = CapabilityModel::IdentityOnly();
  EXPECT_TRUE(model.Covers(B, B));
  EXPECT_FALSE(model.Covers(I, B));
  EXPECT_FALSE(model.Covers(B, Y));
  for (RepairAction r : kAllActions) {
    EXPECT_TRUE(model.Covers(A, r));
  }
}

TEST(CapabilityModelTest, FromMatrixCustomRelation) {
  // REIMAGE covers REBOOT's effects but REBOOT does not cover TRYNOP's
  // observation role in this (contrived) relation.
  std::array<std::array<bool, kNumActions>, kNumActions> covers = {};
  for (int a = 0; a < kNumActions; ++a) {
    covers[static_cast<std::size_t>(a)][static_cast<std::size_t>(a)] = true;
    covers[static_cast<std::size_t>(ActionIndex(A))]
          [static_cast<std::size_t>(a)] = true;
  }
  covers[static_cast<std::size_t>(ActionIndex(I))]
        [static_cast<std::size_t>(ActionIndex(B))] = true;
  const CapabilityModel model = CapabilityModel::FromMatrix(covers);
  EXPECT_TRUE(model.Covers(I, B));
  EXPECT_FALSE(model.Covers(B, Y));
}

TEST(CapabilityModelDeathTest, NonReflexiveAborts) {
  std::array<std::array<bool, kNumActions>, kNumActions> covers = {};
  for (int a = 0; a < kNumActions; ++a) {
    covers[static_cast<std::size_t>(ActionIndex(A))]
          [static_cast<std::size_t>(a)] = true;
  }
  // TRYNOP does not cover itself.
  covers[0][0] = false;
  covers[1][1] = covers[2][2] = true;
  EXPECT_DEATH(CapabilityModel::FromMatrix(covers), "AER_CHECK");
}

TEST(CapabilityModelDeathTest, RmaMustCoverEverything) {
  std::array<std::array<bool, kNumActions>, kNumActions> covers = {};
  for (int a = 0; a < kNumActions; ++a) {
    covers[static_cast<std::size_t>(a)][static_cast<std::size_t>(a)] = true;
  }
  // RMA not covering REIMAGE.
  covers[3][0] = covers[3][1] = true;
  EXPECT_DEATH(CapabilityModel::FromMatrix(covers), "AER_CHECK");
}

TEST(CoversRequirementsUnderTest, AgreesWithTotalOrderFastPath) {
  Rng rng(17);
  const CapabilityModel& model = CapabilityModel::TotalOrder();
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<RepairAction> exec(rng.NextBounded(5));
    std::vector<RepairAction> req(rng.NextBounded(4));
    for (auto& a : exec) {
      a = ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
    }
    for (auto& a : req) {
      a = ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
    }
    ASSERT_EQ(CoversRequirementsUnder(exec, req, model),
              CoversRequirements(exec, req))
        << "trial " << trial;
  }
}

TEST(CoversRequirementsUnderTest, MatchingNeedsDistinctExecutions) {
  const CapabilityModel& model = CapabilityModel::IdentityOnly();
  const RepairAction req[] = {B, B};
  const RepairAction one[] = {B, I};  // I does not substitute under identity
  const RepairAction two[] = {B, B};
  EXPECT_FALSE(CoversRequirementsUnder(one, req, model));
  EXPECT_TRUE(CoversRequirementsUnder(two, req, model));
}

TEST(CoversRequirementsUnderTest, AugmentingPathsFindNonGreedyMatching) {
  // Relation: I covers {I, B}; B covers {B}; A covers all; Y covers {Y}.
  // Requirements {I, B} with executions {I, B}: the naive "match strongest
  // first to strongest" works, but {B, I} vs requirements {B, B}... build a
  // case where a greedy assignment fails and augmentation is needed:
  // exec {I, B}, req {B, B}: I->B, B->B works (both covered).
  std::array<std::array<bool, kNumActions>, kNumActions> covers = {};
  for (int a = 0; a < kNumActions; ++a) {
    covers[static_cast<std::size_t>(a)][static_cast<std::size_t>(a)] = true;
    covers[3][static_cast<std::size_t>(a)] = true;
  }
  covers[2][1] = true;  // I covers B
  const CapabilityModel model = CapabilityModel::FromMatrix(covers);
  const RepairAction exec[] = {I, B};
  const RepairAction req_bb[] = {B, B};
  EXPECT_TRUE(CoversRequirementsUnder(exec, req_bb, model));
  const RepairAction req_ib[] = {I, B};
  EXPECT_TRUE(CoversRequirementsUnder(exec, req_ib, model));
  const RepairAction req_ii[] = {I, I};
  EXPECT_FALSE(CoversRequirementsUnder(exec, req_ii, model));
}

// Property: against arbitrary random relations, the matcher agrees with
// brute-force permutation search.
TEST(CoversRequirementsUnderPropertyTest, AgreesWithBruteForce) {
  Rng rng(23);
  for (int trial = 0; trial < 1500; ++trial) {
    // Random valid relation.
    std::array<std::array<bool, kNumActions>, kNumActions> covers = {};
    for (int e = 0; e < kNumActions; ++e) {
      for (int r = 0; r < kNumActions; ++r) {
        covers[static_cast<std::size_t>(e)][static_cast<std::size_t>(r)] =
            rng.NextBool(0.4);
      }
      covers[static_cast<std::size_t>(e)][static_cast<std::size_t>(e)] = true;
    }
    // Force the RMA row last so the random fill cannot clobber it.
    for (int r = 0; r < kNumActions; ++r) {
      covers[3][static_cast<std::size_t>(r)] = true;
    }
    const CapabilityModel model = CapabilityModel::FromMatrix(covers);

    std::vector<RepairAction> exec(rng.NextBounded(5));
    std::vector<RepairAction> req(rng.NextBounded(4));
    for (auto& a : exec) {
      a = ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
    }
    for (auto& a : req) {
      a = ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
    }

    bool expected = false;
    if (req.empty()) {
      expected = true;
    } else if (req.size() <= exec.size()) {
      std::vector<std::size_t> idx(exec.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      do {
        bool ok = true;
        for (std::size_t i = 0; i < req.size(); ++i) {
          if (!model.Covers(exec[idx[i]], req[i])) {
            ok = false;
            break;
          }
        }
        if (ok) {
          expected = true;
          break;
        }
      } while (std::next_permutation(idx.begin(), idx.end()));
    }
    ASSERT_EQ(CoversRequirementsUnder(exec, req, model), expected)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace aer
