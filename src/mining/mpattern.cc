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

// True if `pred` holds for every subset of `items` (size >= 2) that drops
// one item; stops at the first that fails. `subset` is scratch space.
template <typename Pred>
bool AllDropOneSubsets(const ItemSet& items, ItemSet& subset,
                       const Pred& pred) {
  subset.assign(items.begin() + 1, items.end());
  for (std::size_t drop = 0; drop < items.size(); ++drop) {
    // subset = items minus element `drop`.
    if (drop > 0) subset[drop - 1] = items[drop - 1];
    if (!pred(subset)) return false;
  }
  return true;
}

// The n transactions `fill(i, out)` writes, collapsed into distinct ones
// with counts and sorted by items, so the hash map's order never shows.
// Only a transaction not met before is copied.
template <typename Fill>
std::vector<WeightedTransaction> Collapse(std::size_t n, const Fill& fill) {
  std::unordered_map<Transaction, std::int64_t, ItemSetHash> counts;
  Transaction scratch;
  for (std::size_t i = 0; i < n; ++i) {
    fill(i, scratch);
    ++counts[scratch];
  }
  std::vector<WeightedTransaction> out;
  out.reserve(counts.size());
  for (const auto& [items, count] : counts) out.push_back({items, count});
  std::sort(out.begin(), out.end(),
            [](const WeightedTransaction& a, const WeightedTransaction& b) {
              return a.items < b.items;
            });
  return out;
}

}  // namespace

std::vector<WeightedTransaction> CollapseSymptomSets(
    std::span<const RecoveryProcess> processes) {
  return Collapse(processes.size(), [&](std::size_t i, Transaction& out) {
    processes[i].DistinctSymptoms(out);
  });
}

std::vector<WeightedTransaction> CollapseTransactions(
    std::span<const Transaction> transactions) {
  return Collapse(transactions.size(), [&](std::size_t i, Transaction& out) {
    out = transactions[i];
  });
}

MPatternMiner::MPatternMiner(MPatternConfig config) : config_(config) {
  AER_CHECK_GT(config_.minp, 0.0);
  AER_CHECK_LE(config_.minp, 1.0);
  AER_CHECK_GE(config_.min_support, 1);
  AER_CHECK_GE(config_.max_pattern_size, 1u);
}

std::vector<ItemSet> MPatternMiner::MineAll(
    std::span<const WeightedTransaction> transactions,
    std::vector<double>* strengths) const {
  // Item supports.
  std::unordered_map<SymptomId, std::int64_t> item_support;
  for (const WeightedTransaction& txn : transactions) {
    AER_CHECK(std::adjacent_find(txn.items.begin(), txn.items.end(),
                                 std::greater_equal<>()) == txn.items.end())
        << "transaction items must be sorted and distinct";
    AER_CHECK_GE(txn.count, 1);
    for (SymptomId item : txn.items) item_support[item] += txn.count;
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
  ItemSet scratch;
  ItemSet subset;
  while (!level.empty()) {
    result.insert(result.end(), level.begin(), level.end());
    result_strength.insert(result_strength.end(), level_strength.begin(),
                           level_strength.end());
    if (level.front().size() >= config_.max_pattern_size) break;
    const std::size_t k = level.front().size() + 1;

    // Candidates and their supports in one walk over the size-k subsets of
    // each transaction: a subset is a candidate iff every subset dropping
    // one item is a level-(k-1) pattern (downward closure), and it gains
    // the transaction's count. These are the closure-pruned prefix joins
    // that occur in some transaction; the others have support 0 and never
    // pass min_support >= 1, so they are never built. The dependence test
    // below is downward closed too, so the closure test changes no output:
    // it keeps subsets that cannot be patterns out of `counts`.
    const std::unordered_set<ItemSet, ItemSetHash> prev(level.begin(),
                                                        level.end());
    const auto in_prev = [&](const ItemSet& s) { return prev.contains(s); };
    std::unordered_map<ItemSet, std::int64_t, ItemSetHash> counts;
    for (const WeightedTransaction& txn : transactions) {
      if (txn.items.size() < k) continue;
      ForEachSubset(txn.items, k, 0, scratch, [&](const ItemSet& candidate) {
        const auto it = counts.find(candidate);
        if (it != counts.end()) {
          it->second += txn.count;
        } else if (AllDropOneSubsets(candidate, subset, in_prev)) {
          counts.emplace(candidate, txn.count);
        }
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
    std::span<const WeightedTransaction> transactions) const {
  return Maximal(MineAll(transactions));
}

std::vector<ItemSet> MPatternMiner::Maximal(std::span<const ItemSet> patterns) {
  // Downward closure: a pattern is non-maximal iff some pattern of size+1
  // contains it, so it suffices to mark the immediate subsets of every
  // pattern.
  std::unordered_set<ItemSet, ItemSetHash> non_maximal;
  ItemSet subset;
  for (const ItemSet& p : patterns) {
    if (p.size() < 2) continue;
    AllDropOneSubsets(p, subset, [&](const ItemSet& s) {
      non_maximal.insert(s);
      return true;
    });
  }

  std::vector<ItemSet> maximal;
  for (const ItemSet& p : patterns) {
    if (!non_maximal.contains(p)) maximal.push_back(p);
  }
  return maximal;
}

}  // namespace aer
