// Process-wide metrics: a registry of named counters, gauges, histograms and
// running stats, built on the accumulators in common/stats.h.
//
// Design points (docs/OBSERVABILITY.md has the full contract):
//  - Lookup (`GetCounter` etc.) takes the registry mutex; instrumented hot
//    paths cache the returned reference once and then update lock-free
//    (counters/gauges are atomics) or under a per-metric mutex (histograms
//    and stats). References stay valid for the registry's lifetime.
//  - Exports are deterministic: metrics are emitted in name order, doubles
//    with %.17g, so two same-seed runs produce byte-identical snapshots.
//  - Metrics derived from wall-clock time (episodes/sec) are registered as
//    *volatile* gauges; deterministic snapshots exclude them via
//    `ExportOptions::include_volatile = false`.
#ifndef AER_OBS_METRICS_H_
#define AER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"

namespace aer::obs {

// Monotonically increasing integer metric. Lock-free; relaxed ordering is
// enough because counters carry no synchronization duties.
class Counter {
 public:
  void Inc(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Last-write-wins double metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Mutex-guarded LogHistogram (geometric buckets; see common/stats.h).
class Histogram {
 public:
  Histogram(double base, double growth, int bucket_count)
      : histogram_(base, growth, bucket_count) {}

  void Observe(double x) {
    MutexLock lock(mu_);
    histogram_.Add(x);
  }

  LogHistogram Snapshot() const {
    MutexLock lock(mu_);
    return histogram_;
  }

 private:
  mutable Mutex mu_;
  LogHistogram histogram_ AER_GUARDED_BY(mu_);
};

// Mutex-guarded RunningStat (count/sum/mean/min/max/stddev).
class StatMetric {
 public:
  void Observe(double x) {
    MutexLock lock(mu_);
    stat_.Add(x);
  }

  RunningStat Snapshot() const {
    MutexLock lock(mu_);
    return stat_;
  }

  void MergeFrom(const RunningStat& other) {
    MutexLock lock(mu_);
    stat_.Merge(other);
  }

 private:
  mutable Mutex mu_;
  RunningStat stat_ AER_GUARDED_BY(mu_);
};

enum class MetricKind { kCounter, kGauge, kHistogram, kStat };

// A point-in-time copy of every metric, each section sorted by name — the
// substrate of the TimeSeriesRecorder's windowed deltas.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
    bool volatile_metric = false;
  };
  struct HistogramValue {
    std::string name;
    LogHistogram histogram;
  };
  struct StatValue {
    std::string name;
    RunningStat stat;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<StatValue> stats;
};

// Valid metric names match [a-z][a-z0-9_]* — enforced with AER_CHECK so the
// catalog in docs/OBSERVABILITY.md stays greppable and export-safe.
bool IsValidMetricName(std::string_view name);

// Escapes a Prometheus exposition label value: `\` -> `\\`, `"` -> `\"`,
// newline -> `\n` (the format's three mandated escapes). Every exporter
// emitting `key="value"` label pairs must route values through this.
std::string EscapeLabelValue(std::string_view value);

class MetricsRegistry {
 public:
  struct ExportOptions {
    // When false, volatile (wall-clock-derived) metrics are omitted so the
    // snapshot is a pure function of (code, seed, scale).
    bool include_volatile = true;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. CHECK-fails if `name` is already registered with a
  // different kind (or, for histograms, a different geometry).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name, bool volatile_metric = false);
  Histogram& GetHistogram(std::string_view name, double base = 60.0,
                          double growth = 2.0, int bucket_count = 20);
  StatMetric& GetStat(std::string_view name);

  // Copies every metric under the registry mutex (name-sorted; see
  // MetricsSnapshot). The copy is consistent per metric, not across metrics
  // — concurrent writers may land between sections, same as the exports.
  MetricsSnapshot Snapshot() const;

  // Prometheus-style text exposition, sorted by metric name. Histograms emit
  // cumulative non-empty buckets plus "+Inf"; stats emit a summary block.
  std::string ExportText(const ExportOptions& options) const;
  std::string ExportText() const { return ExportText(ExportOptions{}); }

  // json_writer snapshot with the same content (and determinism) as the
  // text export, plus approximate histogram quantiles.
  JsonValue ExportJson(const ExportOptions& options) const;
  JsonValue ExportJson() const { return ExportJson(ExportOptions{}); }

  // Registered metric names in sorted order.
  std::vector<std::string> Names() const;

  // All counters as sorted (name, value) pairs — the compare surface that
  // bench_json mirrors into baseline records for run_all.py --compare.
  std::vector<std::pair<std::string, std::int64_t>> CounterValues() const;

  std::size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    bool volatile_metric = false;
    Counter counter;                       // kCounter
    Gauge gauge;                           // kGauge
    std::unique_ptr<Histogram> histogram;  // kHistogram
    std::unique_ptr<StatMetric> stat;      // kStat
  };

  // Find-or-create on the entry map; every caller already holds mu_.
  Entry& GetOrCreate(std::string_view name, MetricKind kind)
      AER_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries_
      AER_GUARDED_BY(mu_);
};

}  // namespace aer::obs

#endif  // AER_OBS_METRICS_H_
