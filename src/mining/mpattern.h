// Mutually-dependent pattern (m-pattern) mining, after Ma & Hellerstein,
// "Mining Mutually Dependent Patterns" (IEEE JSAC 2002) — reference [19] of
// the paper.
//
// An itemset X is an m-pattern at dependence strength `minp` if every item
// i ∈ X satisfies  P(X | i) = sup(X) / sup(i) ≥ minp:  whenever any one of
// the items occurs, the whole set co-occurs with probability at least minp.
// Unlike frequent itemsets, m-patterns capture *infrequent but highly
// correlated* items — exactly the structure of error symptoms, where a rare
// fault deterministically emits its own small set of symptoms.
//
// m-patterns are downward closed (every subset of an m-pattern is an
// m-pattern), so we mine level-wise, Apriori style. Transactions here are
// the distinct-symptom sets of recovery processes: small (≤ ~16 items) and
// few (a log of ~72k processes holds a few hundred distinct sets). The miner
// therefore takes each distinct set once with its multiplicity, and level k
// walks the size-k subsets of each set: a subset whose every (k-1)-subset
// is a level-(k-1) pattern is a candidate, and its support is the summed
// count of the sets holding it. Candidates that occur in no set are never
// built.
//
// A pattern's *strength* is min_{i ∈ X} sup(X) / sup(i) (1.0 for a single
// item): X is an m-pattern at minp iff its strength is not below minp. The
// patterns at a higher minp are therefore exactly the patterns mined at a
// lower one whose strength is not below the higher minp, so a sweep over
// minp mines once, at its lowest value (symptom_clusters.h).
#ifndef AER_MINING_MPATTERN_H_
#define AER_MINING_MPATTERN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "log/recovery_process.h"
#include "log/symptom.h"

namespace aer {

// A transaction: sorted, de-duplicated item (symptom) ids. MineAll checks
// both: a repeated item would inflate that item's support.
using Transaction = std::vector<SymptomId>;

// An itemset, sorted ascending.
using ItemSet = std::vector<SymptomId>;

// A transaction that occurs `count` (>= 1) times.
struct WeightedTransaction {
  Transaction items;
  std::int64_t count = 0;

  friend bool operator==(const WeightedTransaction&,
                         const WeightedTransaction&) = default;
};

// The distinct symptom sets (RecoveryProcess::DistinctSymptoms) of the
// processes, each with the number of processes that have it, sorted by
// `items`. The counts sum to processes.size().
std::vector<WeightedTransaction> CollapseSymptomSets(
    std::span<const RecoveryProcess> processes);

// The distinct transactions with their counts, sorted by `items`. Each
// transaction is kept as given; MineAll checks that it is sorted and free
// of repeats.
std::vector<WeightedTransaction> CollapseTransactions(
    std::span<const Transaction> transactions);

struct MPatternConfig {
  // Minimum mutual-dependence strength; the paper uses minp = 0.1 for the
  // final clustering (Section 3.1).
  double minp = 0.1;
  // Minimum absolute support: ignore items seen fewer times than this (the
  // mutual-dependence test is meaningless on single occurrences).
  std::int64_t min_support = 2;
  // Safety cap on pattern size; symptom sets per fault are small.
  std::size_t max_pattern_size = 16;
};

class MPatternMiner {
 public:
  explicit MPatternMiner(MPatternConfig config);

  // All m-patterns of size >= 1 over the weighted transactions (a
  // transaction counts `count` times; repeats of one item set are allowed),
  // each sorted ascending; the result is sorted lexicographically within
  // each size, sizes ascending. If `strengths` is given, it receives each
  // pattern's strength, index for index.
  std::vector<ItemSet> MineAll(
      std::span<const WeightedTransaction> transactions,
      std::vector<double>* strengths = nullptr) const;

  // Only the maximal m-patterns (no mined superset). These act as the
  // symptom clusters of Section 3.1.
  std::vector<ItemSet> MineMaximal(
      std::span<const WeightedTransaction> transactions) const;

  // The maximal members of a downward-closed pattern set ordered as MineAll
  // returns it (any minp filter of MineAll's result is one), in that order.
  static std::vector<ItemSet> Maximal(std::span<const ItemSet> patterns);

 private:
  MPatternConfig config_;
};

}  // namespace aer

#endif  // AER_MINING_MPATTERN_H_
