// Symptom clustering on top of m-pattern mining (Section 3.1).
//
// The maximal m-patterns over the processes' distinct-symptom sets act as
// symptom clusters. A process is "cohesive" when all its symptoms fall inside
// a single cluster — the fraction of cohesive processes versus minp is the
// paper's Figure 3, and non-cohesive processes are treated as noise.
//
// Mining and the Figure 3 fractions work on the collapsed symptom sets
// (CollapseSymptomSets: each distinct set once, with its process count), so
// their cost follows the few hundred distinct sets rather than the tens of
// thousands of processes. Testing one process needs no allocation: only the
// clusters holding its initial symptom can hold all its symptoms.
//
// A minp sweep mines once: the m-patterns at any minp are the patterns mined
// at the sweep's lowest minp whose strength is not below it (mpattern.h), so
// SymptomClusteringSweep filters one MineAll result per minp and re-derives
// the maximal sets. Its clusterings equal one SymptomClustering per minp.
#ifndef AER_MINING_SYMPTOM_CLUSTERS_H_
#define AER_MINING_SYMPTOM_CLUSTERS_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "mining/mpattern.h"
#include "log/recovery_process.h"

namespace aer {

class SymptomClustering {
 public:
  // Mines maximal m-patterns at the given strength and indexes them.
  SymptomClustering(std::span<const RecoveryProcess> processes,
                    const MPatternConfig& config);

  // Indexes already-mined clusters (maximal m-patterns).
  explicit SymptomClustering(std::vector<ItemSet> clusters);

  const std::vector<ItemSet>& clusters() const { return clusters_; }

  // True if every symptom of the process lies in one mined cluster.
  bool IsCohesive(const RecoveryProcess& process) const;
  // The same test on a sorted, distinct symptom set (non-empty).
  bool IsCohesive(const Transaction& symptoms) const;

  // Fraction of processes that are cohesive (one Figure 3 data point), over
  // their CollapseSymptomSets: the counts of the cohesive sets over the
  // total count (0 for no processes).
  double CohesiveFraction(std::span<const WeightedTransaction> sets) const;

 private:
  std::vector<ItemSet> clusters_;
  // symptom -> indices of clusters containing it (clusters can overlap).
  std::unordered_map<SymptomId, std::vector<int>> by_symptom_;
};

// One clustering per minp value, in the given order (any order, repeats
// allowed), from a single mine at the lowest value. `config.minp` is
// ignored; its other fields apply to every minp.
std::vector<SymptomClustering> SymptomClusteringSweep(
    std::span<const WeightedTransaction> sets,
    std::span<const double> minp_values, MPatternConfig config = {});

// The Figure 3 sweep: cohesive fraction per minp value, from one collapse
// and one mine.
std::vector<double> CohesiveFractionSweep(
    std::span<const RecoveryProcess> processes,
    std::span<const double> minp_values);

}  // namespace aer

#endif  // AER_MINING_SYMPTOM_CLUSTERS_H_
