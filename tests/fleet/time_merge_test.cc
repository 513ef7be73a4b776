// Differential test of the fleet's shard merge (common/time_merge.h):
// MergeTimeOrderedRuns must return exactly what concatenating its runs and
// stable-sorting by (time, machine) returns — every element, in the same
// place — for randomized runs with and without a pool. The cases that could
// break a chunked counting sort get their own generators: equal
// (time, machine) keys inside a run, empty runs, a single run, times on and
// next to chunk boundaries, times far past the first chunk, and a 1 s span.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/time_merge.h"

namespace aer {
namespace {

struct Item {
  SimTime time = 0;
  std::int64_t machine = 0;
  int tag = 0;  // distinct per item: equal keys stay distinguishable

  friend bool operator==(const Item&, const Item&) = default;
};

TimeKey KeyOf(const Item& item) { return {item.time, item.machine}; }

bool KeyLess(const Item& a, const Item& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.machine < b.machine;
}

std::vector<Item> Reference(const std::vector<std::vector<Item>>& runs) {
  std::vector<Item> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end(), KeyLess);
  return all;
}

std::vector<Item> Merge(std::vector<std::vector<Item>> runs,
                        ThreadPool* pool) {
  return MergeTimeOrderedRuns(std::move(runs), KeyOf, pool);
}

// How a run's times are drawn.
enum class Times {
  kSpread,     // uniform over several chunks
  kBoundary,   // on and next to multiples of the chunk span
  kOneSecond,  // everything within [0, 1]
  kLateTail,   // mostly early, a few far past the first chunks
};

SimTime DrawTime(Rng& rng, Times times) {
  const SimTime span = kTimeMergeChunkSpan;
  switch (times) {
    case Times::kSpread:
      return static_cast<SimTime>(rng.NextBounded(5 * span));
    case Times::kBoundary: {
      const auto k = static_cast<SimTime>(rng.NextBounded(4));
      const auto d = static_cast<SimTime>(rng.NextBounded(3)) - 1;
      return std::max<SimTime>(0, k * span + d);
    }
    case Times::kOneSecond:
      return static_cast<SimTime>(rng.NextBounded(2));
    case Times::kLateTail:
      return rng.NextBool(0.9)
                 ? static_cast<SimTime>(rng.NextBounded(100))
                 : 20 * span + static_cast<SimTime>(rng.NextBounded(span));
  }
  return 0;
}

// `num_runs` runs over ascending machine ranges of `machines_per_run`
// machines; consecutive ranges share their boundary machine when `touching`
// (equal keys across runs). Each run holds up to `max_len` items, sorted
// stably by (time, machine) after tagging, as a fleet shard's wheel emits
// them; about one run in five is empty.
std::vector<std::vector<Item>> RandomRuns(Rng& rng, int num_runs,
                                          int machines_per_run, int max_len,
                                          Times times, bool touching) {
  std::vector<std::vector<Item>> runs(static_cast<std::size_t>(num_runs));
  int tag = 0;
  std::int64_t base = 0;
  for (auto& run : runs) {
    const bool empty = rng.NextBool(0.2);
    const auto len =
        empty ? 0 : static_cast<int>(rng.NextBounded(
                        static_cast<std::uint64_t>(max_len) + 1));
    for (int i = 0; i < len; ++i) {
      const std::int64_t machine =
          base + static_cast<std::int64_t>(rng.NextBounded(
                     static_cast<std::uint64_t>(machines_per_run)));
      run.push_back({DrawTime(rng, times), machine, tag++});
    }
    std::stable_sort(run.begin(), run.end(), KeyLess);
    base += touching ? machines_per_run - 1 : machines_per_run;
  }
  return runs;
}

void ExpectMergeMatchesReference(std::vector<std::vector<Item>> runs) {
  const std::vector<Item> expected = Reference(runs);
  EXPECT_EQ(Merge(runs, nullptr), expected);
  ThreadPool pool(3);
  EXPECT_EQ(Merge(std::move(runs), &pool), expected);
}

TEST(TimeMergeTest, RandomizedRunsMatchConcatenateAndStableSort) {
  Rng rng(DeriveStream(2024, 1));
  for (int trial = 0; trial < 200; ++trial) {
    const Times times = static_cast<Times>(trial % 4);
    const int num_runs = 1 + static_cast<int>(rng.NextBounded(9));
    // Few machines and short time ranges force equal keys inside a run.
    const int machines = 1 + static_cast<int>(rng.NextBounded(6));
    const bool touching = machines > 1 && rng.NextBool(0.5);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectMergeMatchesReference(
        RandomRuns(rng, num_runs, machines, 300, times, touching));
  }
}

TEST(TimeMergeTest, EqualKeysInsideARunKeepTheirOrder) {
  // One machine per run, one second: every item of a run shares its key.
  Rng rng(DeriveStream(2024, 2));
  ExpectMergeMatchesReference(
      RandomRuns(rng, 4, 1, 500, Times::kOneSecond, false));
}

TEST(TimeMergeTest, EveryChunkBoundaryCaseMatches) {
  const SimTime span = kTimeMergeChunkSpan;
  std::vector<std::vector<Item>> runs(3);
  int tag = 0;
  for (const SimTime t : {SimTime{0}, span - 1, span, span + 1, 2 * span - 1,
                          2 * span, 7 * span}) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const auto machine = static_cast<std::int64_t>(r) * 10;
      runs[r].push_back({t, machine, tag++});
      runs[r].push_back({t, machine, tag++});
      runs[r].push_back({t, machine + 1, tag++});
    }
  }
  ExpectMergeMatchesReference(std::move(runs));
}

TEST(TimeMergeTest, EmptyInputsAndEmptyRuns) {
  EXPECT_TRUE(Merge({}, nullptr).empty());
  EXPECT_TRUE(Merge({{}, {}, {}}, nullptr).empty());
  std::vector<std::vector<Item>> runs(4);
  runs[2] = {{5, 20, 0}, {9, 21, 1}};
  ExpectMergeMatchesReference(std::move(runs));
}

TEST(TimeMergeTest, SingleRunIsMovedNotCopied) {
  std::vector<std::vector<Item>> runs(1);
  for (int i = 0; i < 100; ++i) runs[0].push_back({i / 3, i % 3, i});
  const std::vector<Item> expected = runs[0];
  const Item* storage = runs[0].data();
  const std::vector<Item> merged = Merge(std::move(runs), nullptr);
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(merged.data(), storage);
}

TEST(TimeMergeTest, NegativeAndLateTimesMatch) {
  std::vector<std::vector<Item>> runs = {
      {{-5, 0, 0}, {0, 1, 1}, {40 * kTimeMergeChunkSpan, 0, 2}},
      {{-5, 2, 3}, {3, 2, 4}},
  };
  ExpectMergeMatchesReference(std::move(runs));
}

TEST(TimeMergeDeathTest, UnsortedRunAborts) {
  std::vector<std::vector<Item>> runs = {{{1, 0, 0}, {2, 0, 1}},
                                         {{7, 5, 2}, {3, 5, 3}}};
  EXPECT_DEATH(Merge(std::move(runs), nullptr), "AER_CHECK");
}

TEST(TimeMergeDeathTest, EqualTimesOutOfMachineOrderAbort) {
  std::vector<std::vector<Item>> runs = {{{4, 3, 0}, {4, 2, 1}}};
  EXPECT_DEATH(Merge(std::move(runs), nullptr), "AER_CHECK");
}

TEST(TimeMergeDeathTest, DescendingMachineRangesAbort) {
  // Each run is sorted, but run 1's machines lie below run 0's: counting by
  // time in run order would put machine 9 before machine 1 at time 4.
  std::vector<std::vector<Item>> runs = {{{4, 9, 0}}, {{4, 1, 1}}};
  EXPECT_DEATH(Merge(std::move(runs), nullptr), "AER_CHECK");
}

}  // namespace
}  // namespace aer
