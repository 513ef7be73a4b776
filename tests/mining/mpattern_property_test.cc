// Property test: the Apriori-style miner must agree exactly with a naive
// reference that enumerates every candidate itemset and checks the
// m-pattern definition (sup(X)/sup(i) >= minp for all i in X, support >=
// min_support) directly. Small vocabularies keep the reference tractable.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mining/mpattern.h"
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

// All itemsets over items [0, vocab) up to `max_size`, kept if they satisfy
// the m-pattern definition over `txns`.
std::set<ItemSet> ReferenceMineAll(const std::vector<Transaction>& txns,
                                   int vocab, std::size_t max_size,
                                   double minp, std::int64_t min_support) {
  std::vector<std::int64_t> item_support(static_cast<std::size_t>(vocab), 0);
  for (const Transaction& t : txns) {
    for (SymptomId i : t) ++item_support[static_cast<std::size_t>(i)];
  }
  std::set<ItemSet> result;
  // Enumerate subsets by bitmask (vocab <= 12).
  for (unsigned mask = 1; mask < (1u << vocab); ++mask) {
    ItemSet items;
    for (int i = 0; i < vocab; ++i) {
      if (mask & (1u << i)) items.push_back(i);
    }
    if (items.size() > max_size) continue;
    const std::int64_t support = MPatternSupport(items, txns);
    if (support < min_support) continue;
    bool ok = true;
    for (SymptomId i : items) {
      if (static_cast<double>(support) /
              static_cast<double>(item_support[static_cast<std::size_t>(i)]) <
          minp - 1e-12) {
        ok = false;
        break;
      }
    }
    if (ok) result.insert(items);
  }
  return result;
}

class MPatternVsReferenceTest : public ::testing::TestWithParam<double> {};

TEST_P(MPatternVsReferenceTest, MineAllMatchesDefinition) {
  const double minp = GetParam();
  Rng rng(static_cast<std::uint64_t>(minp * 1000) + 5);
  constexpr int kVocab = 8;
  for (int trial = 0; trial < 30; ++trial) {
    // Random transactions with clustered structure plus noise.
    std::vector<Transaction> txns;
    const int n = 20 + static_cast<int>(rng.NextBounded(60));
    for (int t = 0; t < n; ++t) {
      std::set<SymptomId> items;
      // A random "cluster" of 2-3 adjacent items, sometimes.
      if (rng.NextBool(0.7)) {
        const int base = static_cast<int>(rng.NextBounded(kVocab - 2));
        items.insert(base);
        items.insert(base + 1);
        if (rng.NextBool(0.5)) items.insert(base + 2);
      }
      // Random extra items.
      for (int i = 0; i < kVocab; ++i) {
        if (rng.NextBool(0.1)) items.insert(i);
      }
      if (items.empty()) items.insert(static_cast<SymptomId>(
          rng.NextBounded(kVocab)));
      txns.emplace_back(items.begin(), items.end());
    }

    MPatternConfig config;
    config.minp = minp;
    config.min_support = 2;
    config.max_pattern_size = 5;
    const auto mined = MineAll(config, txns);
    const std::set<ItemSet> mined_set(mined.begin(), mined.end());
    ASSERT_EQ(mined_set.size(), mined.size()) << "no duplicates";

    const std::set<ItemSet> expected = ReferenceMineAll(
        txns, kVocab, config.max_pattern_size, minp, config.min_support);
    ASSERT_EQ(mined_set, expected)
        << "trial " << trial << " minp " << minp << " n " << n;
  }
}

TEST_P(MPatternVsReferenceTest, MaximalAreExactlyTheMaximalOnes) {
  const double minp = GetParam();
  Rng rng(static_cast<std::uint64_t>(minp * 977) + 11);
  constexpr int kVocab = 7;
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<Transaction> txns;
    const int n = 15 + static_cast<int>(rng.NextBounded(40));
    for (int t = 0; t < n; ++t) {
      std::set<SymptomId> items;
      for (int i = 0; i < kVocab; ++i) {
        if (rng.NextBool(0.3)) items.insert(i);
      }
      if (items.empty()) items.insert(0);
      txns.emplace_back(items.begin(), items.end());
    }
    MPatternConfig config;
    config.minp = minp;
    config.min_support = 2;
    config.max_pattern_size = 5;
    const auto all = MineAll(config, txns);
    const auto maximal = MineMaximal(config, txns);
    const std::set<ItemSet> all_set(all.begin(), all.end());

    std::set<ItemSet> expected_maximal;
    for (const ItemSet& p : all) {
      bool has_superset = false;
      for (const ItemSet& q : all) {
        if (q.size() > p.size() &&
            std::includes(q.begin(), q.end(), p.begin(), p.end())) {
          has_superset = true;
          break;
        }
      }
      if (!has_superset) expected_maximal.insert(p);
    }
    ASSERT_EQ(std::set<ItemSet>(maximal.begin(), maximal.end()),
              expected_maximal)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(MinpGrid, MPatternVsReferenceTest,
                         ::testing::Values(0.1, 0.25, 0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace aer
