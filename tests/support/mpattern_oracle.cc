#include "support/mpattern_oracle.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace aer {
namespace {

// Hashes a sorted itemset (a 64-bit multiplicative mix per item).
struct ItemSetHash {
  std::size_t operator()(const ItemSet& items) const noexcept {
    std::uint64_t h = 0;
    for (SymptomId item : items) {
      h = (h ^ static_cast<std::uint32_t>(item)) * 0x9e3779b97f4a7c15ull;
    }
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

// Enumerates all size-k subsets of `txn` and invokes `fn` on each.
template <typename Fn>
void ForEachSubset(const Transaction& txn, std::size_t k, std::size_t start,
                   ItemSet& scratch, const Fn& fn) {
  if (scratch.size() == k) {
    fn(scratch);
    return;
  }
  const std::size_t needed = k - scratch.size();
  for (std::size_t i = start; i + needed <= txn.size(); ++i) {
    scratch.push_back(txn[i]);
    ForEachSubset(txn, k, i + 1, scratch, fn);
    scratch.pop_back();
  }
}

}  // namespace

std::int64_t MPatternSupport(const ItemSet& items,
                             std::span<const Transaction> transactions) {
  std::int64_t support = 0;
  for (const Transaction& txn : transactions) {
    if (std::includes(txn.begin(), txn.end(), items.begin(), items.end())) {
      ++support;
    }
  }
  return support;
}

std::vector<ItemSet> PrefixJoinMineAll(
    const MPatternConfig& config, std::span<const Transaction> transactions,
    std::vector<double>* strengths) {
  // Item supports.
  std::unordered_map<SymptomId, std::int64_t> item_support;
  for (const Transaction& txn : transactions) {
    AER_CHECK(std::adjacent_find(txn.begin(), txn.end(),
                                 std::greater_equal<>()) == txn.end())
        << "transaction items must be sorted and distinct";
    for (SymptomId item : txn) ++item_support[item];
  }

  // Level 1: every sufficiently-supported single item.
  std::vector<ItemSet> result;
  std::vector<double> result_strength;
  std::vector<ItemSet> level;
  std::vector<double> level_strength;
  for (const auto& [item, sup] : item_support) {
    if (sup >= config.min_support) level.push_back({item});
  }
  std::sort(level.begin(), level.end());
  level_strength.assign(level.size(), 1.0);

  const auto strength_of = [&](const ItemSet& items, std::int64_t support) {
    double strength = 1.0;
    for (SymptomId item : items) {
      const auto it = item_support.find(item);
      AER_CHECK(it != item_support.end());
      strength = std::min(strength, static_cast<double>(support) /
                                        static_cast<double>(it->second));
    }
    return strength;
  };

  while (!level.empty()) {
    result.insert(result.end(), level.begin(), level.end());
    result_strength.insert(result_strength.end(), level_strength.begin(),
                           level_strength.end());
    if (level.front().size() >= config.max_pattern_size) break;
    const std::size_t k = level.front().size() + 1;

    // Candidate generation: join patterns sharing a (k-2)-prefix, then prune
    // candidates with a non-pattern (k-1)-subset (downward closure). Each
    // candidate enters `counts` with support 0.
    const std::unordered_set<ItemSet, ItemSetHash> prev(level.begin(),
                                                        level.end());
    std::unordered_map<ItemSet, std::int64_t, ItemSetHash> counts;
    for (std::size_t i = 0; i < level.size(); ++i) {
      for (std::size_t j = i + 1; j < level.size(); ++j) {
        const ItemSet& a = level[i];
        const ItemSet& b = level[j];
        if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) {
          break;
        }
        ItemSet joined(a);
        joined.push_back(b.back());
        bool all_subsets_present = true;
        ItemSet subset(joined.begin() + 1, joined.end());
        for (std::size_t drop = 0; drop < joined.size(); ++drop) {
          if (drop > 0) subset[drop - 1] = joined[drop - 1];
          if (!prev.contains(subset)) {
            all_subsets_present = false;
            break;
          }
        }
        if (all_subsets_present) counts.emplace(std::move(joined), 0);
      }
    }
    if (counts.empty()) break;

    // Support counting: enumerate size-k subsets of each transaction.
    ItemSet scratch;
    scratch.reserve(k);
    for (const Transaction& txn : transactions) {
      if (txn.size() < k) continue;
      ForEachSubset(txn, k, 0, scratch, [&](const ItemSet& subset) {
        const auto it = counts.find(subset);
        if (it != counts.end()) ++it->second;
      });
    }

    std::vector<std::pair<ItemSet, double>> next;
    for (const auto& [items, support] : counts) {
      if (support < config.min_support) continue;
      const double strength = strength_of(items, support);
      if (!(strength < config.minp)) next.emplace_back(items, strength);
    }
    std::sort(next.begin(), next.end());
    level.clear();
    level_strength.clear();
    for (auto& [items, strength] : next) {
      level.push_back(std::move(items));
      level_strength.push_back(strength);
    }
  }

  if (strengths != nullptr) *strengths = std::move(result_strength);
  return result;
}

double PerProcessCohesiveFraction(const SymptomClustering& clustering,
                                  std::span<const RecoveryProcess> processes) {
  if (processes.empty()) return 0.0;
  const auto cohesive = std::count_if(
      processes.begin(), processes.end(),
      [&](const RecoveryProcess& p) { return clustering.IsCohesive(p); });
  return static_cast<double>(cohesive) /
         static_cast<double>(processes.size());
}

}  // namespace aer
