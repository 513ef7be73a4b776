#include "obs/metrics.h"

#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace aer::obs {
namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
    case MetricKind::kStat:
      return "stat";
  }
  return "unknown";
}

std::string FormatDouble(double v) { return StrFormat("%.17g", v); }

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  if (name.front() < 'a' || name.front() > 'z') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::GetOrCreate(std::string_view name,
                                                     MetricKind kind) {
  AER_CHECK(IsValidMetricName(name))
      << "metric name must match [a-z][a-z0-9_]*: \"" << name << "\"";
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = kind;
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  } else {
    AER_CHECK(it->second->kind == kind)
        << "metric \"" << name << "\" already registered as "
        << KindName(it->second->kind) << ", requested as " << KindName(kind);
  }
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  return GetOrCreate(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, bool volatile_metric) {
  MutexLock lock(mu_);
  Entry& entry = GetOrCreate(name, MetricKind::kGauge);
  entry.volatile_metric = entry.volatile_metric || volatile_metric;
  return entry.gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name, double base,
                                         double growth, int bucket_count) {
  MutexLock lock(mu_);
  Entry& entry = GetOrCreate(name, MetricKind::kHistogram);
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(base, growth, bucket_count);
  } else {
    const LogHistogram snapshot = entry.histogram->Snapshot();
    AER_CHECK(snapshot.base() == base && snapshot.growth() == growth &&
              snapshot.bucket_count() == bucket_count + 1)
        << "histogram \"" << name << "\" re-registered with a different "
        << "geometry (" << base << ", " << growth << ", " << bucket_count
        << ")";
  }
  return *entry.histogram;
}

StatMetric& MetricsRegistry::GetStat(std::string_view name) {
  MutexLock lock(mu_);
  Entry& entry = GetOrCreate(name, MetricKind::kStat);
  if (entry.stat == nullptr) entry.stat = std::make_unique<StatMetric>();
  return *entry.stat;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, entry] : entries_) {
    switch (entry->kind) {
      case MetricKind::kCounter:
        snapshot.counters.push_back({name, entry->counter.value()});
        break;
      case MetricKind::kGauge:
        snapshot.gauges.push_back(
            {name, entry->gauge.value(), entry->volatile_metric});
        break;
      case MetricKind::kHistogram:
        snapshot.histograms.push_back({name, entry->histogram->Snapshot()});
        break;
      case MetricKind::kStat:
        snapshot.stats.push_back({name, entry->stat->Snapshot()});
        break;
    }
  }
  return snapshot;
}

std::string MetricsRegistry::ExportText(const ExportOptions& options) const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    if (entry->volatile_metric && !options.include_volatile) continue;
    switch (entry->kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " +
               StrFormat("%lld",
                         static_cast<long long>(entry->counter.value())) +
               "\n";
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + FormatDouble(entry->gauge.value()) + "\n";
        break;
      case MetricKind::kHistogram: {
        const LogHistogram h = entry->histogram->Snapshot();
        out += "# TYPE " + name + " histogram\n";
        std::int64_t cum = 0;
        for (int i = 0; i < h.bucket_count(); ++i) {
          if (h.bucket(i) == 0) continue;
          cum += h.bucket(i);
          const bool overflow = i + 1 >= h.bucket_count();
          const std::string le =
              overflow ? std::string("+Inf") : FormatDouble(h.bucket_lower(i + 1));
          out += name + "_bucket{le=\"" + le + "\"} " +
                 StrFormat("%lld", static_cast<long long>(cum)) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " +
               StrFormat("%lld", static_cast<long long>(h.total_count())) +
               "\n";
        out += name + "_count " +
               StrFormat("%lld", static_cast<long long>(h.total_count())) +
               "\n";
        break;
      }
      case MetricKind::kStat: {
        const RunningStat s = entry->stat->Snapshot();
        out += "# TYPE " + name + " summary\n";
        out += name + "_count " +
               StrFormat("%lld", static_cast<long long>(s.count())) + "\n";
        out += name + "_sum " + FormatDouble(s.sum()) + "\n";
        out += name + "_min " + FormatDouble(s.min()) + "\n";
        out += name + "_max " + FormatDouble(s.max()) + "\n";
        out += name + "_mean " + FormatDouble(s.mean()) + "\n";
        break;
      }
    }
  }
  return out;
}

JsonValue MetricsRegistry::ExportJson(const ExportOptions& options) const {
  MutexLock lock(mu_);
  JsonValue root = JsonValue::Object();
  for (const auto& [name, entry] : entries_) {
    if (entry->volatile_metric && !options.include_volatile) continue;
    JsonValue value = JsonValue::Object();
    switch (entry->kind) {
      case MetricKind::kCounter:
        value.Set("type", JsonValue::String("counter"));
        value.Set("value", JsonValue::Int(entry->counter.value()));
        break;
      case MetricKind::kGauge:
        value.Set("type", JsonValue::String("gauge"));
        if (entry->volatile_metric) {
          value.Set("volatile", JsonValue::Bool(true));
        }
        value.Set("value", JsonValue::Number(entry->gauge.value()));
        break;
      case MetricKind::kHistogram: {
        const LogHistogram h = entry->histogram->Snapshot();
        value.Set("type", JsonValue::String("histogram"));
        value.Set("count", JsonValue::Int(h.total_count()));
        JsonValue buckets = JsonValue::Array();
        for (int i = 0; i < h.bucket_count(); ++i) {
          if (h.bucket(i) == 0) continue;
          JsonValue bucket = JsonValue::Object();
          bucket.Set("lower", JsonValue::Number(h.bucket_lower(i)));
          bucket.Set("count", JsonValue::Int(h.bucket(i)));
          buckets.Append(std::move(bucket));
        }
        value.Set("buckets", std::move(buckets));
        if (h.total_count() > 0) {
          value.Set("p50", JsonValue::Number(h.ApproxQuantile(0.5)));
          value.Set("p90", JsonValue::Number(h.ApproxQuantile(0.9)));
          value.Set("p99", JsonValue::Number(h.ApproxQuantile(0.99)));
        }
        break;
      }
      case MetricKind::kStat: {
        const RunningStat s = entry->stat->Snapshot();
        value.Set("type", JsonValue::String("stat"));
        value.Set("count", JsonValue::Int(s.count()));
        value.Set("sum", JsonValue::Number(s.sum()));
        value.Set("mean", JsonValue::Number(s.mean()));
        value.Set("min", JsonValue::Number(s.min()));
        value.Set("max", JsonValue::Number(s.max()));
        break;
      }
    }
    root.Set(name, std::move(value));
  }
  return root;
}

std::vector<std::pair<std::string, std::int64_t>>
MetricsRegistry::CounterValues() const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> values;
  for (const auto& [name, entry] : entries_) {
    if (entry->kind != MetricKind::kCounter) continue;
    values.emplace_back(name, entry->counter.value());
  }
  return values;
}

std::vector<std::string> MetricsRegistry::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace aer::obs
