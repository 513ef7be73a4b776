#include "rl/qtable.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aer {
namespace {

constexpr StateKey kState = 12345;

TEST(QTableTest, EmptyHasNothing) {
  QTable table;
  EXPECT_FALSE(table.Has(kState, RepairAction::kTryNop));
  EXPECT_EQ(table.Visits(kState, RepairAction::kTryNop), 0);
  EXPECT_FALSE(table.BestAction(kState).has_value());
  EXPECT_FALSE(table.BestTwoActions(kState).has_value());
  EXPECT_EQ(table.num_states(), 0u);
}

TEST(QTableTest, FirstUpdateAdoptsTarget) {
  QTable table;
  table.Update(kState, RepairAction::kReboot, 777.0);
  EXPECT_TRUE(table.Has(kState, RepairAction::kReboot));
  EXPECT_DOUBLE_EQ(table.Q(kState, RepairAction::kReboot), 777.0);
  EXPECT_EQ(table.Visits(kState, RepairAction::kReboot), 1);
}

TEST(QTableTest, VisitCountedAlphaIsRunningAverage) {
  // With α_n = 1/(1+visits), the Q value equals the arithmetic mean of all
  // targets seen so far — the property that makes the update a contraction.
  QTable table;
  Rng rng(3);
  double sum = 0.0;
  for (int i = 1; i <= 200; ++i) {
    const double target = rng.NextDouble() * 1000.0;
    sum += target;
    table.Update(kState, RepairAction::kTryNop, target);
    ASSERT_NEAR(table.Q(kState, RepairAction::kTryNop), sum / i, 1e-9);
  }
  EXPECT_EQ(table.Visits(kState, RepairAction::kTryNop), 200);
  EXPECT_EQ(table.total_updates(), 200);
}

TEST(QTableTest, ActionsAreIndependent) {
  QTable table;
  table.Update(kState, RepairAction::kTryNop, 100.0);
  table.Update(kState, RepairAction::kReboot, 50.0);
  EXPECT_DOUBLE_EQ(table.Q(kState, RepairAction::kTryNop), 100.0);
  EXPECT_DOUBLE_EQ(table.Q(kState, RepairAction::kReboot), 50.0);
  EXPECT_FALSE(table.Has(kState, RepairAction::kReimage));
}

TEST(QTableTest, BestActionHasTheLowestQ) {
  QTable table;
  table.Update(kState, RepairAction::kTryNop, 300.0);
  table.Update(kState, RepairAction::kReboot, 100.0);
  table.Update(kState, RepairAction::kRma, 900.0);
  EXPECT_EQ(*table.BestAction(kState), RepairAction::kReboot);
}

TEST(QTableTest, BestActionTieBreaksToWeaker) {
  QTable table;
  table.Update(kState, RepairAction::kReimage, 100.0);
  table.Update(kState, RepairAction::kTryNop, 100.0);
  EXPECT_EQ(*table.BestAction(kState), RepairAction::kTryNop);
}

TEST(QTableTest, BestTwoActions) {
  QTable table;
  table.Update(kState, RepairAction::kTryNop, 300.0);
  table.Update(kState, RepairAction::kReboot, 100.0);
  table.Update(kState, RepairAction::kReimage, 200.0);
  const auto best2 = table.BestTwoActions(kState);
  ASSERT_TRUE(best2.has_value());
  EXPECT_EQ(best2->best, RepairAction::kReboot);
  EXPECT_DOUBLE_EQ(best2->best_q, 100.0);
  ASSERT_TRUE(best2->second.has_value());
  EXPECT_EQ(*best2->second, RepairAction::kReimage);
  EXPECT_DOUBLE_EQ(best2->second_q, 200.0);
}

TEST(QTableTest, BestTwoWithSingleActionHasNoSecond) {
  QTable table;
  table.Update(kState, RepairAction::kRma, 500.0);
  const auto best2 = table.BestTwoActions(kState);
  ASSERT_TRUE(best2.has_value());
  EXPECT_EQ(best2->best, RepairAction::kRma);
  EXPECT_FALSE(best2->second.has_value());
}

// Find() is the one-look-up read of a state: it must agree with Has(), Q()
// and Visits() on every action of explored and unexplored states alike.
TEST(QTableTest, FindAgreesWithHasQAndVisits) {
  QTable table;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    table.Update(rng.NextBounded(16),
                 kAllActions[rng.NextBounded(kAllActions.size())],
                 rng.NextDouble() * 1000.0);
  }
  int explored = 0;
  for (StateKey s = 0; s < 20; ++s) {
    const auto* entries = table.Find(s);
    EXPECT_EQ(entries != nullptr, table.raw().contains(s)) << "state " << s;
    for (RepairAction a : kAllActions) {
      const auto i = static_cast<std::size_t>(ActionIndex(a));
      const std::int64_t visits = entries != nullptr ? (*entries)[i].visits : 0;
      EXPECT_EQ(visits, table.Visits(s, a));
      EXPECT_EQ(visits > 0, table.Has(s, a));
      if (table.Has(s, a)) {
        EXPECT_EQ((*entries)[i].q, table.Q(s, a));
        ++explored;
      }
    }
  }
  EXPECT_GT(explored, 20);
  EXPECT_EQ(table.Find(12345), nullptr);
}

TEST(QTableTest, StatesAreIndependent) {
  QTable table;
  table.Update(1, RepairAction::kTryNop, 10.0);
  table.Update(2, RepairAction::kTryNop, 20.0);
  EXPECT_DOUBLE_EQ(table.Q(1, RepairAction::kTryNop), 10.0);
  EXPECT_DOUBLE_EQ(table.Q(2, RepairAction::kTryNop), 20.0);
  EXPECT_EQ(table.num_states(), 2u);
}

TEST(QTableTest, SerializationRoundTrip) {
  QTable table;
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    table.Update(rng.NextBounded(64), ActionFromIndex(static_cast<int>(
                                          rng.NextBounded(kNumActions))),
                 rng.NextDouble() * 1e5);
  }
  std::stringstream ss;
  table.Write(ss);

  QTable reread;
  ASSERT_TRUE(QTable::Read(ss, reread));
  EXPECT_EQ(reread.num_states(), table.num_states());
  EXPECT_EQ(reread.total_updates(), table.total_updates());
  for (const auto& [key, entries] : table.raw()) {
    for (int a = 0; a < kNumActions; ++a) {
      const RepairAction action = ActionFromIndex(a);
      ASSERT_EQ(reread.Has(key, action), table.Has(key, action));
      if (!table.Has(key, action)) continue;
      ASSERT_DOUBLE_EQ(reread.Q(key, action), table.Q(key, action));
      ASSERT_EQ(reread.Visits(key, action), table.Visits(key, action));
    }
  }
}

TEST(QTableTest, SerializationIsSortedAndSkipsUnexplored) {
  QTable table;
  table.Update(0xBEEF, RepairAction::kReboot, 1.0);
  table.Update(0x0001, RepairAction::kTryNop, 2.0);
  std::stringstream ss;
  table.Write(ss);
  const std::string text = ss.str();
  EXPECT_LT(text.find("0000000000000001"), text.find("000000000000beef"));
  EXPECT_EQ(text.find("REIMAGE"), std::string::npos);
}

TEST(QTableTest, ReadRejectsMalformed) {
  for (const char* bad :
       {"nothex\tREBOOT\t1.0\t3", "1\tNOTANACTION\t1.0\t3",
        "1\tREBOOT\tx\t3", "1\tREBOOT\t1.0\t0", "1\tREBOOT\t1.0",
        "1\tREBOOT\t1.0\t3\n1\tREBOOT\t2.0\t4"}) {
    std::stringstream ss(bad);
    QTable reread;
    EXPECT_FALSE(QTable::Read(ss, reread)) << bad;
  }
}

TEST(QTableDeathTest, QOfUnexploredAborts) {
  QTable table;
  table.Update(kState, RepairAction::kTryNop, 10.0);
  EXPECT_DEATH(table.Q(kState, RepairAction::kReboot), "AER_CHECK");
  EXPECT_DEATH(table.Q(999, RepairAction::kTryNop), "AER_CHECK");
}

}  // namespace
}  // namespace aer
