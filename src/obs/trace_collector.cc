#include "obs/trace_collector.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace aer::obs {

std::string_view TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kIncident: return "incident";
    case TraceEventKind::kSymptom: return "symptom";
    case TraceEventKind::kDispatch: return "dispatch";
    case TraceEventKind::kDispatchDrop: return "dispatch_drop";
    case TraceEventKind::kFenceReject: return "fence_reject";
    case TraceEventKind::kBusyDrop: return "busy_drop";
    case TraceEventKind::kActionStart: return "action_start";
    case TraceEventKind::kActionDone: return "action_done";
    case TraceEventKind::kCure: return "cure";
    case TraceEventKind::kResultDeliver: return "result_deliver";
    case TraceEventKind::kResultLost: return "result_lost";
    case TraceEventKind::kTimeout: return "timeout";
    case TraceEventKind::kAdopt: return "adopt";
    case TraceEventKind::kMessageDrop: return "message_drop";
    case TraceEventKind::kLeaderElected: return "leader_elected";
    case TraceEventKind::kLeaderLost: return "leader_lost";
    case TraceEventKind::kNodeCrash: return "node_crash";
    case TraceEventKind::kNodeRestart: return "node_restart";
    case TraceEventKind::kBreakerTrip: return "breaker_trip";
    case TraceEventKind::kBreakerHalfOpen: return "breaker_half_open";
    case TraceEventKind::kGuardFallback: return "guard_fallback";
  }
  return "unknown";
}

TraceCollector::TraceCollector(TraceCollectorConfig config)
    : config_(config) {
  AER_CHECK_GT(config_.capacity, 0u);
}

void TraceCollector::SetMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    sampled_metric_ = nullptr;
    dropped_metric_ = nullptr;
    return;
  }
  sampled_metric_ = &metrics->GetCounter("aer_trace_sampled_total");
  dropped_metric_ = &metrics->GetCounter("aer_trace_dropped_total");
}

bool TraceCollector::Sampled(TraceId id) const {
  return id == kNoTrace || SampleTrace(id, config_.sample_probability);
}

void TraceCollector::AddLocked(TraceRecord record) {
  if (!Sampled(record.trace_id)) {
    ++dropped_;
    if (dropped_metric_) dropped_metric_->Inc();
    return;
  }
  record.seq = next_seq_++;
  ring_.push_back(std::move(record));
  ++recorded_;
  if (sampled_metric_) sampled_metric_->Inc();
  if (ring_.size() > config_.capacity) {
    ring_.pop_front();
    ++dropped_;
    if (dropped_metric_) dropped_metric_->Inc();
  }
}

void TraceCollector::Record(TraceRecord record) {
  MutexLock lock(mu_);
  AddLocked(std::move(record));
}

void TraceCollector::MergeShards(std::vector<std::vector<TraceRecord>> shards) {
  // Concatenate in shard order, then stable-sort by (time, machine). Each
  // machine lives in exactly one shard and records per machine are appended
  // in time order, so every (time, machine) tie group arrives from a single
  // shard in a thread-independent order — the stable sort therefore yields
  // the same byte stream for any shard count (fleet num_shards() is
  // config-pure) and any thread assignment.
  std::vector<TraceRecord> merged;
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  merged.reserve(total);
  for (auto& shard : shards) {
    for (auto& record : shard) merged.push_back(std::move(record));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.machine < b.machine;
                   });
  MutexLock lock(mu_);
  for (auto& record : merged) AddLocked(std::move(record));
}

std::vector<TraceRecord> TraceCollector::Snapshot() const {
  MutexLock lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::int64_t TraceCollector::recorded_count() const {
  MutexLock lock(mu_);
  return recorded_;
}

std::int64_t TraceCollector::dropped_count() const {
  MutexLock lock(mu_);
  return dropped_;
}

}  // namespace aer::obs
