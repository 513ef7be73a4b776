#include "support/hypotheses.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aer {
namespace {

RecoveryProcess MakeProcess(std::vector<RepairAction> actions) {
  std::vector<SymptomEvent> symptoms = {{0, 0}};
  std::vector<ActionAttempt> attempts;
  SimTime t = 100;
  for (RepairAction a : actions) {
    attempts.push_back({a, t, 100, false});
    t += 100;
  }
  attempts.back().cured = true;
  return RecoveryProcess(0, std::move(symptoms), std::move(attempts), t);
}

TEST(CorrectActionsTest, SingleActionProcess) {
  const auto required = CorrectActions(MakeProcess({RepairAction::kReboot}));
  EXPECT_EQ(required, (std::vector<RepairAction>{RepairAction::kReboot}));
}

TEST(CorrectActionsTest, EscalationKeepsOnlyFinalStrength) {
  const auto required = CorrectActions(MakeProcess(
      {RepairAction::kTryNop, RepairAction::kReboot, RepairAction::kReimage}));
  EXPECT_EQ(required, (std::vector<RepairAction>{RepairAction::kReimage}));
}

TEST(CorrectActionsTest, RepeatedFinalStrengthIsMultiset) {
  const auto required = CorrectActions(MakeProcess(
      {RepairAction::kTryNop, RepairAction::kReboot, RepairAction::kReboot}));
  EXPECT_EQ(required, (std::vector<RepairAction>{RepairAction::kReboot,
                                                 RepairAction::kReboot}));
}

TEST(CorrectActionsTest, StrongerThanLastIsIncluded) {
  // Non-monotone log: REIMAGE failed, then a REBOOT cured. Both count.
  const auto required = CorrectActions(
      MakeProcess({RepairAction::kReimage, RepairAction::kReboot}));
  EXPECT_EQ(required, (std::vector<RepairAction>{RepairAction::kReimage,
                                                 RepairAction::kReboot}));
}

TEST(CoversRequirementsTest, ExactMatch) {
  const RepairAction req[] = {RepairAction::kReboot};
  const RepairAction exec[] = {RepairAction::kReboot};
  EXPECT_TRUE(CoversRequirements(exec, req));
}

TEST(CoversRequirementsTest, StrongerReplacesWeaker) {
  const RepairAction req[] = {RepairAction::kReboot};
  const RepairAction exec[] = {RepairAction::kReimage};
  EXPECT_TRUE(CoversRequirements(exec, req));
}

TEST(CoversRequirementsTest, WeakerDoesNotReplace) {
  const RepairAction req[] = {RepairAction::kReimage};
  const RepairAction exec[] = {RepairAction::kReboot, RepairAction::kReboot,
                               RepairAction::kTryNop};
  EXPECT_FALSE(CoversRequirements(exec, req));
}

TEST(CoversRequirementsTest, MultisetNeedsDistinctExecutions) {
  const RepairAction req[] = {RepairAction::kReboot, RepairAction::kReboot};
  const RepairAction one[] = {RepairAction::kReboot};
  const RepairAction two[] = {RepairAction::kReboot, RepairAction::kReboot};
  const RepairAction mixed[] = {RepairAction::kReimage,
                                RepairAction::kReboot};
  EXPECT_FALSE(CoversRequirements(one, req));
  EXPECT_TRUE(CoversRequirements(two, req));
  EXPECT_TRUE(CoversRequirements(mixed, req));
}

TEST(CoversRequirementsTest, EmptyRequirementsAlwaysCovered) {
  EXPECT_TRUE(CoversRequirements({}, {}));
  const RepairAction exec[] = {RepairAction::kTryNop};
  EXPECT_TRUE(CoversRequirements(exec, {}));
}

TEST(CoversRequirementsTest, EmptyExecutionCoversNothing) {
  const RepairAction req[] = {RepairAction::kTryNop};
  EXPECT_FALSE(CoversRequirements({}, req));
}

// Property: the greedy matcher agrees with brute-force bipartite matching on
// random small instances.
TEST(CoversRequirementsPropertyTest, AgreesWithBruteForce) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<RepairAction> exec(rng.NextBounded(5));
    std::vector<RepairAction> req(rng.NextBounded(4));
    for (auto& a : exec) {
      a = ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
    }
    for (auto& a : req) {
      a = ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
    }

    // Brute force: try all assignments of requirements to distinct executed
    // actions (sizes <= 4, so permutations are cheap).
    bool expected = false;
    if (req.empty()) {
      expected = true;
    } else if (req.size() <= exec.size()) {
      std::vector<std::size_t> idx(exec.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      std::sort(idx.begin(), idx.end());
      do {
        bool ok = true;
        for (std::size_t i = 0; i < req.size(); ++i) {
          if (!AtLeastAsStrong(exec[idx[i]], req[i])) {
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

    EXPECT_EQ(CoversRequirements(exec, req), expected)
        << "trial " << trial << " exec=" << exec.size()
        << " req=" << req.size();
  }
}

}  // namespace
}  // namespace aer
