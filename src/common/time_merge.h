// Stable merge of time-ordered runs, in parallel, into one presized vector.
//
// The fleet simulator produces one run of log entries (and of trace
// records, and of ground truth) per shard. Each run is already sorted by
// (time, machine), and the shards cover ascending machine-ID ranges. The
// merged stream must equal what concatenating the runs in order and
// stable-sorting by (time, machine) gives — the order every pinned log and
// trace checksum was recorded in. Under those two preconditions a stable
// counting sort by time alone, over the runs taken in order, produces
// exactly that stream: at one time, run r's elements come before run r+1's
// (lower machines first), and inside a run they keep their order (which is
// already machine order, with equal (time, machine) keys in arrival order).
//
// The time axis is cut into fixed chunks of kTimeMergeChunkSpan seconds,
// starting at the earliest element; the last chunk holds the latest element
// whatever the caller's horizon was. Chunk c finds its slice of every run by
// binary search, so its output offset (the count of earlier elements) and
// its counter array (one slot per second of the chunk) need nothing from
// any other chunk. The chunks therefore run as independent tasks on the
// pool — or one after another without a pool, through the same code — and
// write disjoint ranges of the output: there is no shared mutable state
// between tasks, and the chunking cannot affect the bytes of the result.
#ifndef AER_COMMON_TIME_MERGE_H_
#define AER_COMMON_TIME_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/thread_pool.h"

namespace aer {

// Seconds of SimTime per merge chunk. Bounds a chunk's counter array at
// 64 KiB, small enough that the allocator reuses it between chunks.
inline constexpr SimTime kTimeMergeChunkSpan = SimTime{1} << 14;

// The merge key of one element.
struct TimeKey {
  SimTime time = 0;
  std::int64_t machine = 0;
};

// Merges `runs` into one vector ordered exactly as a stable sort of their
// concatenation by (time, machine) would order it. `key_of(element)`
// returns the element's TimeKey. AER_CHECK-fails unless every run is sorted
// by (time, machine) and the runs' machine ranges ascend (each non-empty
// run's smallest machine is at least every earlier run's largest). A
// single run is returned as is, without a copy. `pool` may be null.
template <typename T, typename KeyOf>
std::vector<T> MergeTimeOrderedRuns(std::vector<std::vector<T>> runs,
                                    KeyOf key_of, ThreadPool* pool) {
  // Check every run's order and note its machine range.
  std::vector<std::pair<std::int64_t, std::int64_t>> machines(runs.size());
  ParallelFor(pool, runs.size(), [&](std::size_t r) {
    const std::vector<T>& run = runs[r];
    if (run.empty()) return;
    TimeKey prev = key_of(run.front());
    std::int64_t lo = prev.machine;
    std::int64_t hi = prev.machine;
    for (std::size_t i = 1; i < run.size(); ++i) {
      const TimeKey key = key_of(run[i]);
      AER_CHECK(prev.time < key.time ||
                (prev.time == key.time && prev.machine <= key.machine))
          << "run " << r << " is not sorted by (time, machine) at element "
          << i;
      lo = std::min(lo, key.machine);
      hi = std::max(hi, key.machine);
      prev = key;
    }
    machines[r] = {lo, hi};
  });

  std::size_t total = 0;
  SimTime first = std::numeric_limits<SimTime>::max();
  SimTime last = std::numeric_limits<SimTime>::min();
  std::int64_t highest_machine = std::numeric_limits<std::int64_t>::min();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].empty()) continue;
    AER_CHECK_LE(highest_machine, machines[r].first)
        << "run " << r << " starts below an earlier run's machines";
    highest_machine = machines[r].second;
    first = std::min(first, key_of(runs[r].front()).time);
    last = std::max(last, key_of(runs[r].back()).time);
    total += runs[r].size();
  }
  if (runs.size() == 1) return std::move(runs.front());
  std::vector<T> out(total);
  if (total == 0) return out;
  // Bounds every chunk's element count, so the counters fit 32 bits.
  AER_CHECK_LE(total, std::size_t{std::numeric_limits<std::uint32_t>::max()});

  const auto chunks = static_cast<std::size_t>((last - first) /
                                               kTimeMergeChunkSpan) + 1;
  ParallelFor(pool, chunks, [&](std::size_t c) {
    const SimTime begin =
        first + static_cast<SimTime>(c) * kTimeMergeChunkSpan;
    const SimTime end = begin + kTimeMergeChunkSpan;
    const auto before = [&](SimTime t) {
      return [&key_of, t](const T& x) { return key_of(x).time < t; };
    };
    // counts[k + 1] counts the elements at time begin + k; the prefix sum
    // turns counts[k] into the output position of the next such element.
    std::vector<std::uint32_t> counts(
        static_cast<std::size_t>(kTimeMergeChunkSpan) + 1, 0);
    std::vector<std::pair<std::size_t, std::size_t>> slices(runs.size());
    std::size_t offset = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      std::vector<T>& run = runs[r];
      const auto lo = std::partition_point(run.begin(), run.end(),
                                           before(begin));
      const auto hi = std::partition_point(lo, run.end(), before(end));
      offset += static_cast<std::size_t>(lo - run.begin());
      slices[r] = {static_cast<std::size_t>(lo - run.begin()),
                   static_cast<std::size_t>(hi - run.begin())};
      for (auto it = lo; it != hi; ++it) {
        ++counts[static_cast<std::size_t>(key_of(*it).time - begin) + 1];
      }
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& count : counts) {
      sum += count;
      count = sum;
    }
    for (std::size_t r = 0; r < runs.size(); ++r) {
      std::vector<T>& run = runs[r];
      for (std::size_t i = slices[r].first; i < slices[r].second; ++i) {
        const auto k = static_cast<std::size_t>(key_of(run[i]).time - begin);
        out[offset + counts[k]++] = std::move(run[i]);
      }
    }
  });
  return out;
}

}  // namespace aer

#endif  // AER_COMMON_TIME_MERGE_H_
