// TraceCollector: the shared sink for causal trace records.
//
// Every tracing-aware component (control-plane and injection harnesses,
// coordinators, the machine-side RecoveryManager, the guarded policy, fleet
// shards) appends TraceRecords here — it is the only trace store; the
// collector owns sampling, bounding, and the byte-identical merge of
// per-shard record streams (same discipline as the fleet ShardMerger: shards
// concatenated in shard order, then a stable sort by time — so the merged
// stream is identical for any thread/shard count).
//
// Records are flat events, not spans: the DAG structure (parent edges,
// orphan annotations) is recomputed deterministically by trace_dag.h from
// the record stream, which keeps the wire/storage format trivial and makes
// the merge order-insensitive.
//
// Sampling: deterministic hash-based head sampling (SampleTrace). The keep
// decision depends only on the trace id, so every participant in a recovery
// process agrees on it — a kept trace is complete, a dropped trace leaves
// nothing. aer_trace_sampled_total / aer_trace_dropped_total count kept and
// sampled-out or ring-evicted records.
#ifndef AER_OBS_TRACE_COLLECTOR_H_
#define AER_OBS_TRACE_COLLECTOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "obs/trace_context.h"

namespace aer::obs {

class MetricsRegistry;
class Counter;

// Frozen event vocabulary. Values are the wire/JSON encoding: append-only,
// never renumber (docs/OBSERVABILITY.md "Distributed tracing").
enum class TraceEventKind : int {
  kIncident = 0,       // fault injected on a machine (trace root)
  kSymptom = 1,        // symptom admitted by the leaseholder
  kDispatch = 2,       // leader issued an action dispatch
  kDispatchDrop = 3,   // dispatch lost in the network (orphan)
  kFenceReject = 4,    // machine-side fence rejected a stale epoch
  kBusyDrop = 5,       // machine busy executing; dispatch dropped
  kActionStart = 6,    // machine began executing the action
  kActionDone = 7,     // machine finished executing the action
  kCure = 8,           // machine healthy; process ends here
  kResultDeliver = 9,  // action result reached the issuing coordinator
  kResultLost = 10,    // result undeliverable (orphan)
  kTimeout = 11,       // issuer expired the in-flight action
  kAdopt = 12,         // new leader adopted the replicated process
  kMessageDrop = 13,   // traced coordinator message lost (orphan)
  kLeaderElected = 14,  // global: a coordinator became leaseholder
  kLeaderLost = 15,     // global: leaseholder stepped down
  kNodeCrash = 16,      // global: coordinator crashed
  kNodeRestart = 17,    // global: coordinator restarted
  kBreakerTrip = 18,      // global: guarded policy demoted its primary
  kBreakerHalfOpen = 19,  // global: probation served, primary retried
  kGuardFallback = 20,    // global: one decision fell back (detail = why)
};

std::string_view TraceEventKindName(TraceEventKind kind);

// One causal event. Records with trace_id == kNoTrace are global control
// events (leadership, node lifecycle, guarded-policy transitions); the
// critical-path analyzer overlays the leadership ones onto every trace. All
// others belong to exactly one trace.
struct TraceRecord {
  TraceId trace_id = kNoTrace;
  SimTime time = 0;
  TraceEventKind kind = TraceEventKind::kIncident;
  std::int64_t machine = -1;  // afflicted machine, -1 if not machine-scoped
  int node = -1;              // coordinator involved, -1 if none
  int attempt = -1;           // 0-based action attempt index, -1 if n/a
  int action = -1;            // RepairAction index, -1 if n/a
  std::uint64_t epoch = 0;    // fencing epoch carried by the hop, 0 if n/a
  bool duplicate = false;     // hop produced by network duplication
  std::string detail;         // free-form annotation (symptom name, ...)
  // Arrival order within the collector; breaks (time, machine) ties in the
  // shard merge. Assigned by the collector, not callers.
  std::uint64_t seq = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

struct TraceCollectorConfig {
  // Ring capacity in records; the oldest record is evicted (and counted
  // dropped) beyond this.
  std::size_t capacity = 1 << 16;
  // Head-sampling probability (SampleTrace). 1.0 keeps every trace.
  double sample_probability = 1.0;
};

class TraceCollector {
 public:
  explicit TraceCollector(TraceCollectorConfig config = {});

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Registers aer_trace_sampled_total / aer_trace_dropped_total. Call before
  // recording; nullptr detaches.
  void SetMetrics(MetricsRegistry* metrics);

  // The shared head-sampling decision for `id`. Global records (kNoTrace)
  // are always kept.
  bool Sampled(TraceId id) const;

  // Appends one record (applying sampling and the ring bound). The
  // collector assigns record.seq.
  void Record(TraceRecord record);

  // Merges per-shard record streams: concatenation in shard order, then a
  // stable sort by (time, machine) — byte-identical for any shard-to-thread
  // assignment because each (time, machine) run is produced by exactly one
  // shard in machine-local order. Same discipline as fleet::ShardMerger.
  void MergeShards(std::vector<std::vector<TraceRecord>> shards);

  // Oldest-first copy of the ring.
  std::vector<TraceRecord> Snapshot() const;

  std::int64_t recorded_count() const;
  std::int64_t dropped_count() const;
  const TraceCollectorConfig& config() const { return config_; }

 private:
  void AddLocked(TraceRecord record) AER_REQUIRES(mu_);

  const TraceCollectorConfig config_;
  // Set once before recording starts; read without the lock (counters are
  // internally atomic).
  Counter* sampled_metric_ = nullptr;
  Counter* dropped_metric_ = nullptr;

  mutable Mutex mu_;
  std::deque<TraceRecord> ring_ AER_GUARDED_BY(mu_);
  std::uint64_t next_seq_ AER_GUARDED_BY(mu_) = 1;
  std::int64_t recorded_ AER_GUARDED_BY(mu_) = 0;
  std::int64_t dropped_ AER_GUARDED_BY(mu_) = 0;
};

}  // namespace aer::obs

#endif  // AER_OBS_TRACE_COLLECTOR_H_
