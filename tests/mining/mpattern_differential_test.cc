// Differential test: MPatternMiner::MineAll over counted distinct sets must
// return exactly what the prefix-join miner it replaced returns over the
// plain transactions (support/mpattern_oracle.h) — the same patterns in the
// same order, with bit-equal strengths — whatever the transactions' order or
// how their repeats are split. Also pins CollapseSymptomSets against
// RecoveryProcess::DistinctSymptoms, and the allocation-free
// IsCohesive(process) against the test on the process's distinct set.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fleet/trace.h"
#include "mining/mpattern.h"
#include "mining/symptom_clusters.h"
#include "support/mpattern_oracle.h"

namespace aer {
namespace {

// A random sorted, distinct set over items [0, vocab): a run of adjacent
// items, sometimes, plus noise; never empty.
Transaction RandomSet(Rng& rng, int vocab) {
  std::set<SymptomId> items;
  if (rng.NextBool(0.7)) {
    const int base = static_cast<int>(rng.NextBounded(vocab - 3));
    const int size = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < size; ++i) items.insert(base + i);
  }
  for (int i = 0; i < vocab; ++i) {
    if (rng.NextBool(0.08)) items.insert(i);
  }
  if (items.empty()) {
    items.insert(static_cast<SymptomId>(rng.NextBounded(vocab)));
  }
  return Transaction(items.begin(), items.end());
}

// Transactions mostly drawn from a small pool of sets, so most repeat.
std::vector<Transaction> RandomTransactions(Rng& rng) {
  constexpr int kVocab = 12;
  std::vector<Transaction> pool;
  const int pool_size = 2 + static_cast<int>(rng.NextBounded(10));
  for (int i = 0; i < pool_size; ++i) pool.push_back(RandomSet(rng, kVocab));
  std::vector<Transaction> txns;
  const int n = 5 + static_cast<int>(rng.NextBounded(120));
  for (int t = 0; t < n; ++t) {
    txns.push_back(rng.NextBool(0.85) ? pool[rng.NextBounded(pool.size())]
                                      : RandomSet(rng, kVocab));
  }
  return txns;
}

void ExpectMatchesOracle(const MPatternConfig& config,
                         const std::vector<Transaction>& txns) {
  std::vector<double> want_strengths;
  const std::vector<ItemSet> want =
      PrefixJoinMineAll(config, txns, &want_strengths);
  std::vector<double> got_strengths;
  const std::vector<ItemSet> got =
      MPatternMiner(config).MineAll(CollapseTransactions(txns), &got_strengths);
  ASSERT_EQ(got, want) << "minp " << config.minp << " min_support "
                       << config.min_support << " max_pattern_size "
                       << config.max_pattern_size;
  ASSERT_EQ(got_strengths.size(), want_strengths.size());
  for (std::size_t i = 0; i < got_strengths.size(); ++i) {
    EXPECT_EQ(got_strengths[i], want_strengths[i]) << "pattern " << i;
  }
}

// Exact ratio boundaries first: a pattern whose strength equals minp stays.
constexpr double kMinps[] = {1.0 / 3.0, 0.5, 1.0, 0.1, 0.25, 2.0 / 3.0};

TEST(MPatternDifferentialTest, MineAllMatchesPrefixJoinOracle) {
  Rng rng(20070625);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<Transaction> txns = RandomTransactions(rng);
    for (std::int64_t min_support = 1; min_support <= 3; ++min_support) {
      for (std::size_t max_size = 1; max_size <= 4; ++max_size) {
        for (double minp : kMinps) {
          MPatternConfig config;
          config.minp = minp;
          config.min_support = min_support;
          config.max_pattern_size = max_size;
          ExpectMatchesOracle(config, txns);
        }
      }
    }
  }
}

TEST(MPatternDifferentialTest, BoundaryRatiosMatchOracle) {
  // sup({1,2}) = 2, sup(1) = 6, sup(2) = 4: strength 1/3 exactly, and
  // P({1,2}|2) = 0.5; sup({3,4}) = 1 over sup(3) = sup(4) = 1.
  std::vector<Transaction> txns;
  for (int i = 0; i < 2; ++i) txns.push_back({1, 2});
  for (int i = 0; i < 4; ++i) txns.push_back({1});
  for (int i = 0; i < 2; ++i) txns.push_back({2});
  txns.push_back({3, 4});
  for (std::int64_t min_support = 1; min_support <= 3; ++min_support) {
    for (double minp : kMinps) {
      MPatternConfig config;
      config.minp = minp;
      config.min_support = min_support;
      ExpectMatchesOracle(config, txns);
    }
  }
  MPatternConfig at_third;
  at_third.minp = 1.0 / 3.0;
  const std::vector<ItemSet> mined =
      MPatternMiner(at_third).MineAll(CollapseTransactions(txns));
  EXPECT_EQ(std::count(mined.begin(), mined.end(), ItemSet{1, 2}), 1);
}

TEST(MPatternDifferentialTest, GeneratedTraceMatchesOracle) {
  const TraceDataset dataset = GenerateTrace(TraceConfigForScale("small"));
  const std::vector<RecoveryProcess> processes =
      SegmentIntoProcesses(dataset.result.log).processes;
  std::vector<Transaction> txns(processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    processes[i].DistinctSymptoms(txns[i]);
  }
  for (double minp : {0.1, 0.5, 1.0}) {
    MPatternConfig config;
    config.minp = minp;
    ExpectMatchesOracle(config, txns);
  }
}

TEST(MPatternDifferentialTest, OrderAndSplitCountsDoNotMatter) {
  Rng rng(91);
  MPatternConfig config;
  config.min_support = 2;
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<Transaction> txns = RandomTransactions(rng);
    config.minp = kMinps[static_cast<std::size_t>(trial) % std::size(kMinps)];
    const MPatternMiner miner(config);
    std::vector<double> want_strengths;
    const std::vector<ItemSet> want =
        miner.MineAll(CollapseTransactions(txns), &want_strengths);

    std::shuffle(txns.begin(), txns.end(), rng);
    std::vector<double> strengths;
    EXPECT_EQ(miner.MineAll(CollapseTransactions(txns), &strengths), want);
    EXPECT_EQ(strengths, want_strengths);

    // The same sets in reverse order, each count split in two entries.
    std::vector<WeightedTransaction> split;
    const std::vector<WeightedTransaction> sets = CollapseTransactions(txns);
    for (auto it = sets.rbegin(); it != sets.rend(); ++it) {
      if (it->count > 1) split.push_back({it->items, 1});
      split.push_back({it->items, it->count > 1 ? it->count - 1 : 1});
    }
    EXPECT_EQ(miner.MineAll(split, &strengths), want);
    EXPECT_EQ(strengths, want_strengths);
  }
}

RecoveryProcess MakeProcess(const std::vector<SymptomId>& symptoms) {
  std::vector<SymptomEvent> events;
  SimTime t = 0;
  for (SymptomId s : symptoms) events.push_back({t++, s});
  std::vector<ActionAttempt> attempts = {
      {RepairAction::kReboot, t, 100, true}};
  return RecoveryProcess(0, std::move(events), std::move(attempts), t + 100);
}

// Processes whose symptoms come unsorted and with repeats.
std::vector<RecoveryProcess> RandomProcesses(Rng& rng) {
  std::vector<RecoveryProcess> out;
  for (const Transaction& set : RandomTransactions(rng)) {
    std::vector<SymptomId> symptoms(set.begin(), set.end());
    if (rng.NextBool(0.3)) symptoms.push_back(symptoms.front());
    std::shuffle(symptoms.begin(), symptoms.end(), rng);
    out.push_back(MakeProcess(symptoms));
  }
  return out;
}

TEST(CollapseSymptomSetsTest, CountsSumToProcessesAndSetsMatchDistinct) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<RecoveryProcess> processes = RandomProcesses(rng);
    const std::vector<WeightedTransaction> sets =
        CollapseSymptomSets(processes);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      EXPECT_GE(sets[i].count, 1);
      total += sets[i].count;
      EXPECT_TRUE(std::adjacent_find(sets[i].items.begin(),
                                     sets[i].items.end(),
                                     std::greater_equal<>()) ==
                  sets[i].items.end());
      if (i > 0) {
        EXPECT_LT(sets[i - 1].items, sets[i].items);
      }
    }
    EXPECT_EQ(total, static_cast<std::int64_t>(processes.size()));

    std::vector<Transaction> distinct(processes.size());
    for (std::size_t i = 0; i < processes.size(); ++i) {
      processes[i].DistinctSymptoms(distinct[i]);
    }
    EXPECT_EQ(sets, CollapseTransactions(distinct));
  }
}

TEST(CollapseSymptomSetsTest, ProcessCohesionMatchesItsDistinctSet) {
  Rng rng(5);
  Transaction distinct;
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<RecoveryProcess> processes = RandomProcesses(rng);
    const std::vector<WeightedTransaction> sets =
        CollapseSymptomSets(processes);
    for (double minp : {0.1, 0.5, 0.9}) {
      MPatternConfig config;
      config.minp = minp;
      const SymptomClustering clustering(processes, config);
      for (const RecoveryProcess& p : processes) {
        p.DistinctSymptoms(distinct);
        EXPECT_EQ(clustering.IsCohesive(p), clustering.IsCohesive(distinct));
      }
      EXPECT_EQ(clustering.CohesiveFraction(sets),
                PerProcessCohesiveFraction(clustering, processes));
    }
  }
}

}  // namespace
}  // namespace aer
