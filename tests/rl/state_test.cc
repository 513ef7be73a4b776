#include "rl/state.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/state_format.h"

namespace aer {
namespace {

TEST(StateTest, RootStateEncoding) {
  const StateKey key = EncodeState(5, {});
  const DecodedState state = DecodeState(key);
  EXPECT_EQ(state.type, 5);
  EXPECT_TRUE(state.tried.empty());
}

TEST(StateTest, RoundTripWithActions) {
  const std::vector<RepairAction> tried = {
      RepairAction::kTryNop, RepairAction::kRma, RepairAction::kReimage,
      RepairAction::kReboot};
  const StateKey key = EncodeState(39, tried);
  const DecodedState state = DecodeState(key);
  EXPECT_EQ(state.type, 39);
  EXPECT_EQ(state.tried, tried);
}

TEST(StateTest, RoundTripPropertyRandom) {
  Rng rng(7);
  for (int trial = 0; trial < 5000; ++trial) {
    const ErrorTypeId type =
        static_cast<ErrorTypeId>(rng.NextBounded(kMaxErrorTypes));
    std::vector<RepairAction> tried(rng.NextBounded(kMaxTriedActions + 1));
    for (auto& a : tried) {
      a = ActionFromIndex(static_cast<int>(rng.NextBounded(kNumActions)));
    }
    const DecodedState state = DecodeState(EncodeState(type, tried));
    ASSERT_EQ(state.type, type);
    ASSERT_EQ(state.tried, tried);
  }
}

TEST(StateTest, DistinctStatesDistinctKeys) {
  std::set<StateKey> keys;
  // All sequences up to length 3 for two types: must be injective.
  for (ErrorTypeId type : {0, 1}) {
    std::vector<RepairAction> tried;
    for (int a0 = -1; a0 < kNumActions; ++a0) {
      tried.clear();
      if (a0 >= 0) tried.push_back(ActionFromIndex(a0));
      for (int a1 = -1; a1 < kNumActions; ++a1) {
        if (a0 < 0 && a1 >= 0) continue;
        auto t2 = tried;
        if (a1 >= 0) t2.push_back(ActionFromIndex(a1));
        EXPECT_TRUE(keys.insert(EncodeState(type, t2)).second);
      }
    }
  }
}

TEST(StateTest, OrderMatters) {
  const std::vector<RepairAction> ab = {RepairAction::kTryNop,
                                        RepairAction::kReboot};
  const std::vector<RepairAction> ba = {RepairAction::kReboot,
                                        RepairAction::kTryNop};
  EXPECT_NE(EncodeState(0, ab), EncodeState(0, ba));
}

TEST(StateTest, FormatIsReadable) {
  const StateKey key =
      EncodeState(12, {{RepairAction::kTryNop, RepairAction::kReboot}});
  EXPECT_EQ(FormatState(key), "T12:[TRYNOP REBOOT]");
  EXPECT_EQ(FormatState(EncodeState(3, {})), "T3:[]");
}

TEST(StateDeathTest, RejectsOverlongSequences) {
  std::vector<RepairAction> tried(kMaxTriedActions + 1,
                                  RepairAction::kTryNop);
  EXPECT_DEATH(EncodeState(0, tried), "AER_CHECK");
}

TEST(StateDeathTest, RejectsOutOfRangeType) {
  EXPECT_DEATH(EncodeState(kMaxErrorTypes, {}), "AER_CHECK");
  EXPECT_DEATH(EncodeState(-1, {}), "AER_CHECK");
}

}  // namespace
}  // namespace aer
