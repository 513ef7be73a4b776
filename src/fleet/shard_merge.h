// Collection point for per-shard simulation output.
//
// Each shard of the fleet simulator produces a ShardOutput on whatever pool
// thread ran it; the merger is the only cross-thread meeting point. Results
// are slotted by shard index under the merger's mutex, and the merge
// (fleet_sim.cc) drains them with TakeAll() in ascending shard — i.e.
// machine-ID — order and merges their time-ordered runs stably
// (common/time_merge.h), which is what makes the merged log independent of
// thread schedule (docs/FLEET_SIM.md).
//
// The class is capability-annotated (docs/STATIC_ANALYSIS.md): slots are
// AER_GUARDED_BY(mu_), the *Locked() inspection API states AER_REQUIRES,
// and mu() exposes the capability for callers that batch reads. The
// negative-compile case tests/negative_compile/fleet_merge_unguarded.cc
// proves -Werror=thread-safety rejects unguarded use.
#ifndef AER_FLEET_SHARD_MERGE_H_
#define AER_FLEET_SHARD_MERGE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/sim_types.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "log/log_entry.h"
#include "obs/trace_collector.h"

namespace aer::fleet {

// Everything one shard contributes to the merged SimulationResult, plus the
// shard-local engine statistics folded into the aer_fleet_* metrics.
struct ShardOutput {
  // In (time, machine) order: the order the shard's wheel pops events.
  std::vector<LogEntry> entries;
  // In (start, machine) order (sorted at the end of the shard's run).
  std::vector<ProcessGroundTruth> ground_truth;
  // Sampled causal trace records, (time, machine) order. Merged into the
  // attached TraceCollector via MergeShards — byte-identical for any
  // shard-to-thread assignment. Empty unless tracing is attached.
  std::vector<obs::TraceRecord> trace;
  std::int64_t fault_arrivals = 0;
  std::int64_t fault_arrivals_skipped = 0;
  std::int64_t processes_completed = 0;
  SimTime total_downtime = 0;
  std::uint64_t events_processed = 0;
  std::size_t wheel_peak = 0;  // high-water mark of the shard's event wheel
};

class ShardMerger {
 public:
  explicit ShardMerger(int num_shards) {
    AER_CHECK_GT(num_shards, 0);
    slots_.resize(static_cast<std::size_t>(num_shards));
    filled_.assign(static_cast<std::size_t>(num_shards), 0);
  }

  ShardMerger(const ShardMerger&) = delete;
  ShardMerger& operator=(const ShardMerger&) = delete;

  // The capability guarding the slots, for callers batching locked reads.
  Mutex& mu() const AER_RETURN_CAPABILITY(mu_) { return mu_; }

  // Files shard `shard`'s output. Each slot is filled exactly once.
  void Add(int shard, ShardOutput output) AER_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    AER_CHECK_GE(shard, 0);
    AER_CHECK_LT(static_cast<std::size_t>(shard), slots_.size());
    AER_CHECK_EQ(filled_[static_cast<std::size_t>(shard)], 0);
    slots_[static_cast<std::size_t>(shard)] = std::move(output);
    filled_[static_cast<std::size_t>(shard)] = 1;
    ++num_filled_;
  }

  int num_shards_locked() const AER_REQUIRES(mu_) {
    return static_cast<int>(slots_.size());
  }
  int num_filled_locked() const AER_REQUIRES(mu_) { return num_filled_; }
  bool shard_filled_locked(int shard) const AER_REQUIRES(mu_) {
    return filled_[static_cast<std::size_t>(shard)] != 0;
  }
  const ShardOutput& shard_locked(int shard) const AER_REQUIRES(mu_) {
    AER_CHECK(shard_filled_locked(shard));
    return slots_[static_cast<std::size_t>(shard)];
  }

  // Moves out all outputs in shard order. Every slot must be filled — the
  // merge runs after the pool barrier, so a hole means a lost shard.
  std::vector<ShardOutput> TakeAll() AER_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    AER_CHECK_EQ(num_filled_, static_cast<int>(slots_.size()));
    std::vector<ShardOutput> out = std::move(slots_);
    slots_.clear();
    filled_.clear();
    num_filled_ = 0;
    return out;
  }

 private:
  mutable Mutex mu_;
  std::vector<ShardOutput> slots_ AER_GUARDED_BY(mu_);
  std::vector<std::uint8_t> filled_ AER_GUARDED_BY(mu_);
  int num_filled_ AER_GUARDED_BY(mu_) = 0;
};

}  // namespace aer::fleet

#endif  // AER_FLEET_SHARD_MERGE_H_
