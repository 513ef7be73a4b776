// Differential test of the replay's cure check. ProcessReplay decides a cure
// from per-kind counts (CapabilityModel::CoversCounts, Hall's condition);
// CoversRequirementsUnder (Kuhn matching, itself brute-force verified in
// capability_test.cc) is the reference. Randomized multisets of 0-20
// actions a side under the total order, identity-only, and random valid
// relations, including non-transitive ones.
#include <algorithm>
#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/hypotheses.h"
#include "sim/replay.h"

namespace aer {
namespace {

using Matrix = std::array<std::array<bool, kNumActions>, kNumActions>;

constexpr std::size_t kKinds = kNumActions;

constexpr auto kRmaIndex =
    static_cast<std::size_t>(ActionIndex(RepairAction::kRma));

RepairAction RandomAction(Rng& rng) {
  return ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
}

// A random machine action or, rarely, manual repair (which always cures,
// so a frequent one would end most replays after a step or two).
RepairAction RandomStep(Rng& rng) {
  return rng.NextBool(0.05)
             ? RepairAction::kRma
             : ActionFromIndex(static_cast<int>(rng.NextBounded(3)));
}

ActionCounts CountsOf(std::span<const RepairAction> actions) {
  ActionCounts counts = {};
  for (RepairAction a : actions) {
    ++counts[static_cast<std::size_t>(ActionIndex(a))];
  }
  return counts;
}

bool IsTransitive(const Matrix& covers) {
  for (std::size_t a = 0; a < kKinds; ++a) {
    for (std::size_t b = 0; b < kKinds; ++b) {
      for (std::size_t c = 0; c < kKinds; ++c) {
        if (covers[a][b] && covers[b][c] && !covers[a][c]) return false;
      }
    }
  }
  return true;
}

// Reflexive, manual repair on top, every other pair a coin flip.
Matrix RandomRelation(Rng& rng) {
  Matrix covers = {};
  for (std::size_t e = 0; e < kKinds; ++e) {
    for (std::size_t r = 0; r < kKinds; ++r) {
      covers[e][r] = e == r || e == kRmaIndex || rng.NextBool(0.4);
    }
  }
  return covers;
}

// A process whose correct-action set (hypothesis 1) is exactly `required`,
// which must be non-empty: the requirements in any order with a weakest
// one last, after a few weaker attempts that are not requirements.
RecoveryProcess ProcessRequiring(std::vector<RepairAction> required,
                                 Rng& rng) {
  std::sort(required.begin(), required.end(),
            [](RepairAction a, RepairAction b) {
              return ActionStrength(a) > ActionStrength(b);
            });
  std::vector<RepairAction> order;
  const RepairAction weakest = required.back();
  const std::size_t weaker = rng.NextBounded(3);
  for (std::size_t i = 0; i < weaker && ActionIndex(weakest) > 0; ++i) {
    order.push_back(ActionFromIndex(
        static_cast<int>(rng.NextBounded(
            static_cast<std::uint64_t>(ActionIndex(weakest))))));
  }
  order.insert(order.end(), required.begin(), required.end());

  std::vector<SymptomEvent> symptoms = {{0, 0}};
  std::vector<ActionAttempt> attempts;
  SimTime t = 50;
  for (RepairAction a : order) {
    attempts.push_back({a, t, 100, false});
    t += 100;
  }
  attempts.back().cured = true;
  return RecoveryProcess(0, std::move(symptoms), std::move(attempts), t);
}

class CureCheckDifferentialTest : public ::testing::Test {
 protected:
  // Replays `executed` step by step against a process requiring `required`
  // and checks every step's cure flag against the reference; then checks
  // CoversCounts directly on every prefix, cured or not.
  void Check(const std::vector<RepairAction>& executed,
             const std::vector<RepairAction>& required,
             const CapabilityModel& model, Rng& rng) {
    for (std::size_t len = 0; len <= executed.size(); ++len) {
      const std::span<const RepairAction> prefix(executed.data(), len);
      ASSERT_EQ(model.CoversCounts(CountsOf(prefix), CountsOf(required)),
                CoversRequirementsUnder(prefix, required, model))
          << "prefix length " << len;
    }
    if (required.empty()) return;  // no process has no requirement

    const RecoveryProcess process = ProcessRequiring(required, rng);
    ASSERT_EQ(CountsOf(CorrectActions(process)), CountsOf(required));
    const CostEstimator estimator({&process, 1}, catalog_);
    ProcessReplay replay(process, 0, estimator, model);
    std::vector<RepairAction> so_far;
    for (RepairAction a : executed) {
      so_far.push_back(a);
      const bool expected = a == RepairAction::kRma ||
                            CoversRequirementsUnder(so_far, required, model);
      ASSERT_EQ(replay.Step(a).cured, expected) << "step " << so_far.size();
      ASSERT_EQ(replay.cured(), expected);
      if (expected) break;
    }
    ++replays_;
  }

  void RunTrials(const CapabilityModel& model, std::uint64_t seed,
                 int trials) {
    Rng rng(seed);
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<RepairAction> executed(rng.NextBounded(21));
      std::vector<RepairAction> required(rng.NextBounded(21));
      for (RepairAction& a : executed) a = RandomStep(rng);
      for (RepairAction& a : required) a = RandomAction(rng);
      SCOPED_TRACE(::testing::Message() << "trial " << trial);
      Check(executed, required, model, rng);
      if (HasFatalFailure()) return;
    }
  }

  // No types: every cost estimate falls back to the global statistics.
  const ErrorTypeCatalog catalog_{std::span<const RecoveryProcess>{}, 40};
  int replays_ = 0;
};

TEST_F(CureCheckDifferentialTest, TotalOrder) {
  RunTrials(CapabilityModel::TotalOrder(), 31, 2000);
  EXPECT_GT(replays_, 1000);
}

TEST_F(CureCheckDifferentialTest, IdentityOnly) {
  RunTrials(CapabilityModel::IdentityOnly(), 37, 2000);
  EXPECT_GT(replays_, 1000);
}

TEST_F(CureCheckDifferentialTest, RandomRelations) {
  Rng rng(41);
  int non_transitive = 0;
  for (int relation = 0; relation < 200; ++relation) {
    const Matrix covers = RandomRelation(rng);
    non_transitive += IsTransitive(covers) ? 0 : 1;
    const CapabilityModel model = CapabilityModel::FromMatrix(covers);
    SCOPED_TRACE(::testing::Message() << "relation " << relation);
    RunTrials(model, 1000 + static_cast<std::uint64_t>(relation), 20);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(non_transitive, 0);
  EXPECT_GT(replays_, 2000);
}

// REIMAGE covers REBOOT and REBOOT covers TRYNOP, but REIMAGE does not cover
// TRYNOP: a non-transitive relation where counting by strength would be
// wrong and only the matching answers.
TEST_F(CureCheckDifferentialTest, NonTransitiveChain) {
  Matrix covers = {};
  for (std::size_t a = 0; a < kKinds; ++a) {
    covers[a][a] = true;
    covers[kRmaIndex][a] = true;
  }
  covers[2][1] = true;  // REIMAGE covers REBOOT
  covers[1][0] = true;  // REBOOT covers TRYNOP
  ASSERT_FALSE(IsTransitive(covers));
  const CapabilityModel model = CapabilityModel::FromMatrix(covers);
  constexpr auto Y = RepairAction::kTryNop;
  constexpr auto B = RepairAction::kReboot;
  constexpr auto I = RepairAction::kReimage;
  const std::vector<RepairAction> required = {B, Y};
  EXPECT_TRUE(model.CoversCounts(CountsOf(std::vector{I, B}),
                                 CountsOf(required)));
  EXPECT_FALSE(model.CoversCounts(CountsOf(std::vector{I, I}),
                                  CountsOf(required)));
  Rng rng(43);
  Check({I, I, B}, required, model, rng);
  Check({I, Y}, required, model, rng);
  RunTrials(model, 47, 1000);
}

}  // namespace
}  // namespace aer
