#include "mining/symptom_clusters.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace aer {

std::vector<Transaction> BuildSymptomTransactions(
    std::span<const RecoveryProcess> processes) {
  std::vector<Transaction> txns;
  txns.reserve(processes.size());
  for (const RecoveryProcess& p : processes) {
    txns.push_back(p.DistinctSymptoms());
  }
  return txns;
}

SymptomClustering::SymptomClustering(
    std::span<const RecoveryProcess> processes, const MPatternConfig& config)
    : SymptomClustering(MPatternMiner(config).MineMaximal(
          BuildSymptomTransactions(processes))) {}

SymptomClustering::SymptomClustering(std::vector<ItemSet> clusters)
    : clusters_(std::move(clusters)) {
  for (std::size_t ci = 0; ci < clusters_.size(); ++ci) {
    for (SymptomId s : clusters_[ci]) {
      by_symptom_[s].push_back(static_cast<int>(ci));
    }
  }
}

bool SymptomClustering::IsCohesive(const RecoveryProcess& process) const {
  return IsCohesive(process.DistinctSymptoms());
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
    std::span<const RecoveryProcess> processes) const {
  return CohesiveFraction(BuildSymptomTransactions(processes));
}

double SymptomClustering::CohesiveFraction(
    std::span<const Transaction> transactions) const {
  if (transactions.empty()) return 0.0;
  std::int64_t cohesive = 0;
  for (const Transaction& txn : transactions) {
    if (IsCohesive(txn)) ++cohesive;
  }
  return static_cast<double>(cohesive) /
         static_cast<double>(transactions.size());
}

int SymptomClustering::ClusterOf(SymptomId symptom) const {
  const auto it = by_symptom_.find(symptom);
  if (it == by_symptom_.end()) return -1;
  int best = -1;
  std::size_t best_size = 0;
  for (int ci : it->second) {
    const std::size_t size = clusters_[static_cast<std::size_t>(ci)].size();
    if (size > best_size || (size == best_size && (best == -1 || ci < best))) {
      best = ci;
      best_size = size;
    }
  }
  return best;
}

std::vector<SymptomClustering> SymptomClusteringSweep(
    std::span<const Transaction> transactions,
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
      MPatternMiner(config).MineAll(transactions, &strengths);

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
  const std::vector<Transaction> txns = BuildSymptomTransactions(processes);
  std::vector<double> out;
  out.reserve(minp_values.size());
  for (const SymptomClustering& clustering :
       SymptomClusteringSweep(txns, minp_values)) {
    out.push_back(clustering.CohesiveFraction(txns));
  }
  return out;
}

}  // namespace aer
