// TraceCollector / trace identity units: deterministic id minting, the
// hash head-sampling contract, ring bounding, counter accounting, and the
// shard-merge determinism claim (docs/OBSERVABILITY.md "Distributed
// tracing") — the merged stream must be byte-identical for any shard
// count, given shards that partition machines.
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer::obs {
namespace {

TEST(TraceContextTest, IdsAreDeterministicAndDistinct) {
  // Pure function of (seed, machine, episode): same inputs, same id.
  EXPECT_EQ(MakeTraceId(7, 3, 1), MakeTraceId(7, 3, 1));
  // Any coordinate change changes the id (splitmix64 is a bijection; a
  // collision across this small grid would be a mixing bug).
  std::set<TraceId> ids;
  for (std::uint64_t seed : {1u, 2u, 99u}) {
    for (std::int64_t machine = 0; machine < 10; ++machine) {
      for (std::uint64_t episode = 1; episode <= 5; ++episode) {
        ids.insert(MakeTraceId(seed, machine, episode));
      }
    }
  }
  EXPECT_EQ(ids.size(), 3u * 10u * 5u);
  // kNoTrace is never minted: "no trace" stays unambiguous.
  EXPECT_EQ(ids.count(kNoTrace), 0u);
}

TEST(TraceContextTest, SamplingIsSharpAtTheEndpoints) {
  for (std::uint64_t i = 1; i <= 200; ++i) {
    const TraceId id = MakeTraceId(42, static_cast<std::int64_t>(i), 1);
    EXPECT_TRUE(SampleTrace(id, 1.0));
    EXPECT_TRUE(SampleTrace(id, 1.5));
    EXPECT_FALSE(SampleTrace(id, 0.0));
    EXPECT_FALSE(SampleTrace(id, -0.5));
  }
}

TEST(TraceContextTest, SamplingIsMonotoneInProbability) {
  // A trace kept at probability p stays kept at every p' > p — the keep set
  // only grows, which is what makes sampled runs comparable across rates.
  const double rates[] = {0.1, 0.25, 0.5, 0.75, 0.9};
  int kept_any = 0;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const TraceId id = MakeTraceId(7, static_cast<std::int64_t>(i), 2);
    bool prev = false;
    for (const double p : rates) {
      const bool kept = SampleTrace(id, p);
      if (prev) {
        EXPECT_TRUE(kept) << "id kept at lower rate dropped at " << p;
      }
      prev = kept;
      if (kept) ++kept_any;
    }
  }
  // The hash is well mixed: at these rates a 500-id population cannot be
  // all-kept or all-dropped.
  EXPECT_GT(kept_any, 0);
  EXPECT_LT(kept_any, 500 * 5);
}

TraceRecord Rec(TraceId id, SimTime time, TraceEventKind kind,
                std::int64_t machine) {
  TraceRecord r;
  r.trace_id = id;
  r.time = time;
  r.kind = kind;
  r.machine = machine;
  return r;
}

TEST(TraceCollectorTest, RecordsInOrderWithSeq) {
  TraceCollector collector;
  const TraceId id = MakeTraceId(1, 0, 1);
  collector.Record(Rec(id, 10, TraceEventKind::kIncident, 0));
  collector.Record(Rec(id, 12, TraceEventKind::kSymptom, 0));
  const auto snapshot = collector.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].kind, TraceEventKind::kIncident);
  EXPECT_EQ(snapshot[0].seq, 1u);
  EXPECT_EQ(snapshot[1].seq, 2u);
  EXPECT_EQ(collector.recorded_count(), 2);
  EXPECT_EQ(collector.dropped_count(), 0);
}

TEST(TraceCollectorTest, SamplingIsCompleteOrNothingPerTrace) {
  TraceCollector collector({.sample_probability = 0.5});
  obs::MetricsRegistry registry;
  collector.SetMetrics(&registry);
  // Feed 3 records per trace over many traces: every trace must appear
  // with all 3 records or none at all.
  const int kTraces = 200;
  for (int m = 0; m < kTraces; ++m) {
    const TraceId id = MakeTraceId(5, m, 1);
    collector.Record(Rec(id, 10 * m, TraceEventKind::kIncident, m));
    collector.Record(Rec(id, 10 * m + 2, TraceEventKind::kSymptom, m));
    collector.Record(Rec(id, 10 * m + 5, TraceEventKind::kCure, m));
  }
  std::set<TraceId> kept;
  std::size_t records = 0;
  for (const TraceRecord& r : collector.Snapshot()) {
    kept.insert(r.trace_id);
    ++records;
  }
  EXPECT_EQ(records, kept.size() * 3u);
  for (const TraceId id : kept) EXPECT_TRUE(collector.Sampled(id));
  // Roughly half kept (hash sampling, not exact), never all or none.
  EXPECT_GT(kept.size(), 0u);
  EXPECT_LT(kept.size(), static_cast<std::size_t>(kTraces));
  // Counter accounting: every record either sampled or dropped.
  EXPECT_EQ(collector.recorded_count() + collector.dropped_count(),
            3 * kTraces);
  EXPECT_EQ(registry.GetCounter("aer_trace_sampled_total").value(),
            collector.recorded_count());
  EXPECT_EQ(registry.GetCounter("aer_trace_dropped_total").value(),
            collector.dropped_count());
}

TEST(TraceCollectorTest, GlobalRecordsBypassSampling) {
  TraceCollector collector({.sample_probability = 0.0});
  collector.Record(Rec(kNoTrace, 5, TraceEventKind::kLeaderElected, -1));
  collector.Record(Rec(MakeTraceId(1, 0, 1), 6, TraceEventKind::kIncident, 0));
  const auto snapshot = collector.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].kind, TraceEventKind::kLeaderElected);
  EXPECT_EQ(collector.dropped_count(), 1);
}

TEST(TraceCollectorTest, RingEvictsOldestAndCountsDrops) {
  TraceCollector collector({.capacity = 4});
  const TraceId id = MakeTraceId(1, 0, 1);
  for (int i = 0; i < 6; ++i) {
    collector.Record(Rec(id, i, TraceEventKind::kSymptom, 0));
  }
  const auto snapshot = collector.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().time, 2);
  EXPECT_EQ(snapshot.back().time, 5);
  EXPECT_EQ(collector.dropped_count(), 2);
}

// Records for machines [begin, end), written machine by machine, each
// machine in time order.
std::vector<TraceRecord> MachineMajorStream(std::int64_t begin,
                                            std::int64_t end) {
  std::vector<TraceRecord> out;
  for (std::int64_t m = begin; m < end; ++m) {
    const TraceId id = MakeTraceId(3, m, 1);
    // Colliding times across machines on purpose: the merge must order ties
    // by machine, not by shard arrival.
    out.push_back(Rec(id, 100, TraceEventKind::kIncident, m));
    out.push_back(Rec(id, 100 + m % 3, TraceEventKind::kSymptom, m));
    out.push_back(Rec(id, 110, TraceEventKind::kCure, m));
  }
  return out;
}

// The same records in (time, machine) order — the shape every fleet shard
// produces (its wheel pops events in that order; machine ranges are
// disjoint and ascend with the shard index).
std::vector<TraceRecord> ShardStream(std::int64_t begin, std::int64_t end) {
  std::vector<TraceRecord> out = MachineMajorStream(begin, end);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.machine < b.machine;
                   });
  return out;
}

TEST(TraceCollectorTest, MergeShardsIsShardCountInvariant) {
  // The same 12 machines split as 1, 2, 3, and 4 shards must produce
  // byte-identical snapshots (docs/OBSERVABILITY.md determinism claim).
  std::vector<std::vector<TraceRecord>> snapshots;
  for (const int shard_count : {1, 2, 3, 4}) {
    TraceCollector collector;
    std::vector<std::vector<TraceRecord>> shards;
    const std::int64_t per = 12 / shard_count;
    for (int s = 0; s < shard_count; ++s) {
      shards.push_back(ShardStream(s * per, (s + 1) * per));
    }
    collector.MergeShards(std::move(shards));
    snapshots.push_back(collector.Snapshot());
  }
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i], snapshots[0]) << "shard split " << i;
  }
  // And the canonical order really is (time, machine)-sorted.
  const auto& merged = snapshots[0];
  ASSERT_FALSE(merged.empty());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const bool ordered =
        merged[i - 1].time < merged[i].time ||
        (merged[i - 1].time == merged[i].time &&
         merged[i - 1].machine <= merged[i].machine);
    EXPECT_TRUE(ordered) << "at " << i;
  }
}

// The merge relies on each shard's (time, machine) order instead of
// re-sorting, so a shard out of that order is a caller bug it refuses.
TEST(TraceCollectorDeathTest, MergeShardsRejectsAnUnsortedShard) {
  TraceCollector collector;
  std::vector<std::vector<TraceRecord>> shards;
  shards.push_back(ShardStream(0, 4));
  shards.push_back(MachineMajorStream(4, 8));
  EXPECT_DEATH(collector.MergeShards(std::move(shards)), "AER_CHECK");
}

TEST(TraceCollectorTest, MergeShardsAppliesSampling) {
  TraceCollector full;
  TraceCollector sampled({.sample_probability = 0.4});
  auto shards = [] {
    std::vector<std::vector<TraceRecord>> s;
    s.push_back(ShardStream(0, 6));
    s.push_back(ShardStream(6, 12));
    return s;
  };
  full.MergeShards(shards());
  sampled.MergeShards(shards());
  EXPECT_EQ(full.recorded_count(), 36);
  EXPECT_LT(sampled.recorded_count(), 36);
  EXPECT_EQ(sampled.recorded_count() + sampled.dropped_count(), 36);
  // The sampled snapshot is exactly the full snapshot filtered by the keep
  // decision — head sampling commutes with the merge.
  std::vector<TraceRecord> expected;
  for (TraceRecord r : full.Snapshot()) {
    if (!sampled.Sampled(r.trace_id)) continue;
    r.seq = 0;
    expected.push_back(std::move(r));
  }
  std::vector<TraceRecord> actual;
  for (TraceRecord r : sampled.Snapshot()) {
    r.seq = 0;
    actual.push_back(std::move(r));
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace aer::obs
