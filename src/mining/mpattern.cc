#include "mining/mpattern.h"

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

// Enumerates all size-k subsets of `txn` and invokes `fn` on each. `txn` is
// sorted, so emitted subsets are sorted too. Recursion depth is bounded by k
// (<= max_pattern_size).
template <typename Fn>
void ForEachSubset(const Transaction& txn, std::size_t k, std::size_t start,
                   ItemSet& scratch, const Fn& fn) {
  if (scratch.size() == k) {
    fn(scratch);
    return;
  }
  // Not enough items left to complete the subset?
  const std::size_t needed = k - scratch.size();
  for (std::size_t i = start; i + needed <= txn.size(); ++i) {
    scratch.push_back(txn[i]);
    ForEachSubset(txn, k, i + 1, scratch, fn);
    scratch.pop_back();
  }
}

}  // namespace

MPatternMiner::MPatternMiner(MPatternConfig config) : config_(config) {
  AER_CHECK_GT(config_.minp, 0.0);
  AER_CHECK_LE(config_.minp, 1.0);
  AER_CHECK_GE(config_.min_support, 1);
  AER_CHECK_GE(config_.max_pattern_size, 1u);
}

std::int64_t MPatternMiner::Support(const ItemSet& items,
                                    std::span<const Transaction> transactions) {
  std::int64_t support = 0;
  for (const Transaction& txn : transactions) {
    if (std::includes(txn.begin(), txn.end(), items.begin(), items.end())) {
      ++support;
    }
  }
  return support;
}

std::vector<ItemSet> MPatternMiner::MineAll(
    std::span<const Transaction> transactions,
    std::vector<double>* strengths) const {
  // Item supports.
  std::unordered_map<SymptomId, std::int64_t> item_support;
  for (const Transaction& txn : transactions) {
    AER_CHECK(std::adjacent_find(txn.begin(), txn.end(),
                                 std::greater_equal<>()) == txn.end())
        << "transaction items must be sorted and distinct";
    for (SymptomId item : txn) ++item_support[item];
  }

  // Level 1: every sufficiently-supported single item is trivially an
  // m-pattern (sup(X)/sup(i) == 1).
  std::vector<ItemSet> result;
  std::vector<double> result_strength;
  std::vector<ItemSet> level;
  std::vector<double> level_strength;
  for (const auto& [item, sup] : item_support) {
    if (sup >= config_.min_support) level.push_back({item});
  }
  std::sort(level.begin(), level.end());
  level_strength.assign(level.size(), 1.0);

  // min_i sup(X)/sup(i); sup(X) <= sup(i), so every ratio is at most 1.
  const auto strength_of = [&](const ItemSet& items, std::int64_t support) {
    double strength = 1.0;
    for (SymptomId item : items) {
      const auto it = item_support.find(item);
      AER_CHECK(it != item_support.end())
          << "candidate item " << item << " missing from 1-item support map";
      strength = std::min(strength, static_cast<double>(support) /
                                        static_cast<double>(it->second));
    }
    return strength;
  };

  // Levels are appended in size order and each is sorted, so `result` ends
  // up in the documented order without a final sort.
  while (!level.empty()) {
    result.insert(result.end(), level.begin(), level.end());
    result_strength.insert(result_strength.end(), level_strength.begin(),
                           level_strength.end());
    if (level.front().size() >= config_.max_pattern_size) break;
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
          // level is sorted lexicographically, so once prefixes diverge no
          // later j matches either.
          break;
        }
        ItemSet joined(a);
        joined.push_back(b.back());
        bool all_subsets_present = true;
        ItemSet subset(joined.begin() + 1, joined.end());
        for (std::size_t drop = 0; drop < joined.size(); ++drop) {
          // subset = joined minus element `drop`.
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

    // Support counting: enumerate size-k subsets of each transaction; one
    // hash lookup per subset.
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
      if (support < config_.min_support) continue;
      const double strength = strength_of(items, support);
      if (!(strength < config_.minp)) next.emplace_back(items, strength);
    }
    // Patterns are distinct, so the pair order is the itemset order.
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

std::vector<ItemSet> MPatternMiner::MineMaximal(
    std::span<const Transaction> transactions) const {
  return Maximal(MineAll(transactions));
}

std::vector<ItemSet> MPatternMiner::Maximal(std::span<const ItemSet> patterns) {
  // Downward closure: a pattern is non-maximal iff some pattern of size+1
  // contains it, so it suffices to mark the immediate subsets of every
  // pattern.
  std::unordered_set<ItemSet, ItemSetHash> non_maximal;
  for (const ItemSet& p : patterns) {
    if (p.size() < 2) continue;
    ItemSet subset(p.begin() + 1, p.end());
    for (std::size_t drop = 0; drop < p.size(); ++drop) {
      if (drop > 0) subset[drop - 1] = p[drop - 1];
      non_maximal.insert(subset);
    }
  }

  std::vector<ItemSet> maximal;
  for (const ItemSet& p : patterns) {
    if (!non_maximal.contains(p)) maximal.push_back(p);
  }
  return maximal;
}

}  // namespace aer
