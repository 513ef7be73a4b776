#include "mining/mpattern.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "support/mpattern_oracle.h"

namespace aer {
namespace {

// The miner over the transactions' collapsed, counted form.
std::vector<ItemSet> MineAll(const MPatternConfig& config,
                             const std::vector<Transaction>& txns) {
  return MPatternMiner(config).MineAll(CollapseTransactions(txns));
}

std::vector<ItemSet> MineMaximal(const MPatternConfig& config,
                                 const std::vector<Transaction>& txns) {
  return MPatternMiner(config).MineMaximal(CollapseTransactions(txns));
}

std::vector<Transaction> Repeat(const Transaction& txn, int n) {
  return std::vector<Transaction>(static_cast<std::size_t>(n), txn);
}

void Append(std::vector<Transaction>& dst, const Transaction& txn, int n) {
  for (int i = 0; i < n; ++i) dst.push_back(txn);
}

TEST(MPatternTest, PerfectCoOccurrenceIsMaximalAtAnyMinp) {
  const auto txns = Repeat({1, 2, 3}, 10);
  for (double minp : {0.1, 0.5, 1.0}) {
    MPatternConfig config;
    config.minp = minp;
    const auto maximal = MineMaximal(config, txns);
    ASSERT_EQ(maximal.size(), 1u) << "minp=" << minp;
    EXPECT_EQ(maximal[0], (ItemSet{1, 2, 3}));
  }
}

TEST(MPatternTest, SupportCountsContainment) {
  std::vector<Transaction> txns;
  Append(txns, {1, 2}, 3);
  Append(txns, {1}, 2);
  Append(txns, {2, 3}, 1);
  EXPECT_EQ(MPatternSupport({1}, txns), 5);
  EXPECT_EQ(MPatternSupport({1, 2}, txns), 3);
  EXPECT_EQ(MPatternSupport({2}, txns), 4);
  EXPECT_EQ(MPatternSupport({1, 2, 3}, txns), 0);
}

TEST(MPatternTest, AsymmetricDependenceRejectedAtHighMinp) {
  // Item 2 always co-occurs with 1, but 1 appears alone often:
  // P({1,2}|2) = 1, P({1,2}|1) = 0.25.
  std::vector<Transaction> txns;
  Append(txns, {1, 2}, 5);
  Append(txns, {1}, 15);
  MPatternConfig config;
  config.minp = 0.5;
  const auto all = MineAll(config, txns);
  EXPECT_EQ(std::count(all.begin(), all.end(), ItemSet{1, 2}), 0);

  // At minp <= 0.25 the pair qualifies.
  config.minp = 0.25;
  const auto all_low = MineAll(config, txns);
  EXPECT_EQ(std::count(all_low.begin(), all_low.end(), ItemSet{1, 2}), 1);
}

TEST(MPatternTest, MinSupportFiltersRareItems) {
  std::vector<Transaction> txns;
  Append(txns, {1, 2}, 10);
  Append(txns, {9}, 1);  // a single occurrence
  MPatternConfig config;
  config.min_support = 2;
  const auto all = MineAll(config, txns);
  for (const ItemSet& p : all) {
    EXPECT_EQ(std::count(p.begin(), p.end(), 9), 0);
  }
}

TEST(MPatternTest, FindsInfrequentButCorrelatedPatterns) {
  // The signature property of m-patterns (vs frequent itemsets): a rare but
  // perfectly correlated set is found even below any reasonable support
  // threshold.
  std::vector<Transaction> txns;
  Append(txns, {1, 2}, 500);   // dominant pattern
  Append(txns, {8, 9}, 3);     // rare but perfectly mutually dependent
  MPatternConfig config;
  config.minp = 0.9;
  const auto maximal = MineMaximal(config, txns);
  EXPECT_NE(std::find(maximal.begin(), maximal.end(), ItemSet{8, 9}),
            maximal.end());
}

TEST(MPatternTest, DownwardClosure) {
  // Every subset of a mined pattern must itself be mined.
  std::vector<Transaction> txns;
  Append(txns, {1, 2, 3, 4}, 8);
  Append(txns, {1, 2}, 2);
  Append(txns, {5, 6}, 4);
  Append(txns, {5}, 1);
  MPatternConfig config;
  config.minp = 0.3;
  const auto all = MineAll(config, txns);
  const std::set<ItemSet> mined(all.begin(), all.end());
  for (const ItemSet& p : all) {
    if (p.size() < 2) continue;
    ItemSet subset(p.begin() + 1, p.end());
    for (std::size_t drop = 0; drop < p.size(); ++drop) {
      if (drop > 0) subset[drop - 1] = p[drop - 1];
      EXPECT_TRUE(mined.contains(subset));
    }
  }
}

TEST(MPatternTest, MaximalPatternsHaveNoMinedSuperset) {
  std::vector<Transaction> txns;
  Append(txns, {1, 2, 3}, 6);
  Append(txns, {4, 5}, 4);
  MPatternConfig config;
  const auto all = MineAll(config, txns);
  const auto maximal = MineMaximal(config, txns);
  for (const ItemSet& m : maximal) {
    for (const ItemSet& p : all) {
      if (p.size() <= m.size()) continue;
      EXPECT_FALSE(std::includes(p.begin(), p.end(), m.begin(), m.end()))
          << "maximal pattern has mined superset";
    }
  }
}

TEST(MPatternTest, HigherMinpMinesSubsetOfPatterns) {
  std::vector<Transaction> txns;
  Append(txns, {1, 2, 3}, 10);
  Append(txns, {1, 2}, 5);
  Append(txns, {1}, 3);
  Append(txns, {4, 5}, 7);
  Append(txns, {4}, 2);

  MPatternConfig low;
  low.minp = 0.2;
  MPatternConfig high;
  high.minp = 0.7;
  const auto all_low = MineAll(low, txns);
  const auto all_high = MineAll(high, txns);
  const std::set<ItemSet> low_set(all_low.begin(), all_low.end());
  for (const ItemSet& p : all_high) {
    EXPECT_TRUE(low_set.contains(p));
  }
  EXPECT_LE(all_high.size(), all_low.size());
}

TEST(MPatternTest, EmptyTransactionsYieldNothing) {
  MPatternConfig config;
  EXPECT_TRUE(MPatternMiner(config).MineAll({}).empty());
  EXPECT_TRUE(MPatternMiner(config).MineMaximal({}).empty());
}

TEST(MPatternTest, OverlappingClustersBothFound) {
  // Two clusters sharing item 3 — both should be mined as maximal when the
  // shared item is balanced between them at low minp.
  std::vector<Transaction> txns;
  Append(txns, {1, 2, 3}, 10);
  Append(txns, {3, 4, 5}, 10);
  MPatternConfig config;
  config.minp = 0.4;
  const auto maximal = MineMaximal(config, txns);
  EXPECT_NE(std::find(maximal.begin(), maximal.end(), ItemSet{1, 2, 3}),
            maximal.end());
  EXPECT_NE(std::find(maximal.begin(), maximal.end(), ItemSet{3, 4, 5}),
            maximal.end());
}

TEST(MPatternTest, MaxPatternSizeCapsDepth) {
  MPatternConfig config;
  config.max_pattern_size = 2;
  const auto txns = Repeat({1, 2, 3, 4}, 5);
  const auto all = MineAll(config, txns);
  for (const ItemSet& p : all) {
    EXPECT_LE(p.size(), 2u);
  }
}

TEST(MPatternTest, DistinctItemsKeepTheWeakerPair) {
  // sup(1) = 2 and sup({1,3}) = 1: P({1,3}|1) = 0.5 meets minp exactly.
  MPatternConfig config;
  config.minp = 0.5;
  config.min_support = 1;
  const std::vector<Transaction> txns = {{1, 2}, {1, 3}};
  const auto all = MineAll(config, txns);
  EXPECT_EQ(std::count(all.begin(), all.end(), ItemSet{1, 3}), 1);
}

TEST(MPatternDeathTest, RejectsARepeatedItemInATransaction) {
  // Counting the repeated 1 would make sup(1) = 3, and {1,3} (1/3 < 0.5)
  // would silently drop out instead of matching the case above.
  MPatternConfig config;
  config.minp = 0.5;
  config.min_support = 1;
  const std::vector<Transaction> txns = {{1, 1, 2}, {1, 3}};
  EXPECT_DEATH(MineAll(config, txns),
               "AER_CHECK.*sorted and distinct");
}

// Parameterized sweep: with x% of transactions perfectly clustered and the
// rest mixed, the number of maximal patterns is stable across minp for the
// clustered part.
class MPatternSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(MPatternSweepTest, PerfectClustersSurviveAllMinp) {
  std::vector<Transaction> txns;
  Append(txns, {0, 1}, 20);
  Append(txns, {2, 3, 4}, 15);
  Append(txns, {5}, 9);
  MPatternConfig config;
  config.minp = GetParam();
  const auto maximal = MineMaximal(config, txns);
  EXPECT_NE(std::find(maximal.begin(), maximal.end(), ItemSet{0, 1}),
            maximal.end());
  EXPECT_NE(std::find(maximal.begin(), maximal.end(), ItemSet{2, 3, 4}),
            maximal.end());
  EXPECT_NE(std::find(maximal.begin(), maximal.end(), ItemSet{5}),
            maximal.end());
}

INSTANTIATE_TEST_SUITE_P(MinpSweep, MPatternSweepTest,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0));

}  // namespace
}  // namespace aer
