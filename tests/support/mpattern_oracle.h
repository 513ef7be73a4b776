// Reference oracles for m-pattern mining (mining/mpattern.h).
//
// PrefixJoinMineAll is the level-wise miner as it stood before the library
// moved onto counted distinct sets: it takes every transaction separately
// and builds each level's candidates by joining pairs of patterns that share
// a prefix, most of which occur in no transaction. MPatternMiner::MineAll
// must return exactly its patterns, in its order, with bit-equal strengths
// (mpattern_differential_test.cc). PerProcessCohesiveFraction is the Figure 3
// fraction counted process by process, the reference for
// SymptomClustering::CohesiveFraction over the collapsed sets.
#ifndef AER_TESTS_SUPPORT_MPATTERN_ORACLE_H_
#define AER_TESTS_SUPPORT_MPATTERN_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "log/recovery_process.h"
#include "mining/mpattern.h"
#include "mining/symptom_clusters.h"

namespace aer {

// Support of an itemset: number of transactions containing all its items.
std::int64_t MPatternSupport(const ItemSet& items,
                             std::span<const Transaction> transactions);

// All m-patterns over the transactions under `config`, ordered as
// MPatternMiner::MineAll orders them; `strengths` (if given) receives each
// pattern's strength, index for index.
std::vector<ItemSet> PrefixJoinMineAll(
    const MPatternConfig& config, std::span<const Transaction> transactions,
    std::vector<double>* strengths = nullptr);

// The share of the processes that `clustering` finds cohesive (0 for none).
double PerProcessCohesiveFraction(const SymptomClustering& clustering,
                                  std::span<const RecoveryProcess> processes);

}  // namespace aer

#endif  // AER_TESTS_SUPPORT_MPATTERN_ORACLE_H_
