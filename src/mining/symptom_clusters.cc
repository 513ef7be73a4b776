#include "mining/symptom_clusters.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/check.h"

namespace aer {

SymptomClustering::SymptomClustering(
    std::span<const RecoveryProcess> processes, const MPatternConfig& config)
    : SymptomClustering(
          MPatternMiner(config).MineMaximal(CollapseSymptomSets(processes))) {}

SymptomClustering::SymptomClustering(std::vector<ItemSet> clusters)
    : clusters_(std::move(clusters)) {
  for (std::size_t ci = 0; ci < clusters_.size(); ++ci) {
    for (SymptomId s : clusters_[ci]) {
      by_symptom_[s].push_back(static_cast<int>(ci));
    }
  }
}

bool SymptomClustering::IsCohesive(const RecoveryProcess& process) const {
  // A cluster holding every symptom holds the initial one, so the clusters
  // holding it are the only candidates.
  const auto it = by_symptom_.find(process.initial_symptom());
  if (it == by_symptom_.end()) return false;
  for (int ci : it->second) {
    const ItemSet& cluster = clusters_[static_cast<std::size_t>(ci)];
    if (std::all_of(process.symptoms().begin(), process.symptoms().end(),
                    [&](const SymptomEvent& e) {
                      return std::binary_search(cluster.begin(),
                                                cluster.end(), e.symptom);
                    })) {
      return true;
    }
  }
  return false;
}

bool SymptomClustering::IsCohesive(const Transaction& symptoms) const {
  AER_CHECK(!symptoms.empty());
  // Candidate clusters: those containing the first symptom; the process is
  // cohesive iff one of them contains every symptom.
  const auto it = by_symptom_.find(symptoms.front());
  if (it == by_symptom_.end()) return false;
  for (int ci : it->second) {
    const ItemSet& cluster = clusters_[static_cast<std::size_t>(ci)];
    if (std::includes(cluster.begin(), cluster.end(), symptoms.begin(),
                      symptoms.end())) {
      return true;
    }
  }
  return false;
}

double SymptomClustering::CohesiveFraction(
    std::span<const WeightedTransaction> sets) const {
  std::int64_t cohesive = 0;
  std::int64_t total = 0;
  for (const WeightedTransaction& set : sets) {
    if (IsCohesive(set.items)) cohesive += set.count;
    total += set.count;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(cohesive) / static_cast<double>(total);
}

std::vector<SymptomClustering> SymptomClusteringSweep(
    std::span<const WeightedTransaction> sets,
    std::span<const double> minp_values, MPatternConfig config) {
  std::vector<SymptomClustering> out;
  if (minp_values.empty()) return out;
  for (double minp : minp_values) {
    AER_CHECK_GT(minp, 0.0);
    AER_CHECK_LE(minp, 1.0);
  }
  config.minp = *std::min_element(minp_values.begin(), minp_values.end());
  std::vector<double> strengths;
  const std::vector<ItemSet> mined =
      MPatternMiner(config).MineAll(sets, &strengths);

  out.reserve(minp_values.size());
  std::vector<ItemSet> kept;
  for (double minp : minp_values) {
    // The comparison MineAll applies: drop a pattern whose strength is
    // below minp.
    kept.clear();
    for (std::size_t j = 0; j < mined.size(); ++j) {
      if (!(strengths[j] < minp)) kept.push_back(mined[j]);
    }
    out.emplace_back(MPatternMiner::Maximal(kept));
  }
  return out;
}

std::vector<double> CohesiveFractionSweep(
    std::span<const RecoveryProcess> processes,
    std::span<const double> minp_values) {
  const std::vector<WeightedTransaction> sets = CollapseSymptomSets(processes);
  std::vector<double> out;
  out.reserve(minp_values.size());
  for (const SymptomClustering& clustering :
       SymptomClusteringSweep(sets, minp_values)) {
    out.push_back(clustering.CohesiveFraction(sets));
  }
  return out;
}

}  // namespace aer
