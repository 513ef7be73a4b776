#include "bench_json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "fleet/trace.h"

namespace aer::bench {
namespace {

// FNV-1a 64 — same integrity hash the Q-table checkpoint format uses.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

struct BenchRecord::Impl {
  std::string name;
  std::chrono::steady_clock::time_point start;
  std::uint64_t checksum = kFnvOffset;
  std::vector<std::pair<std::string, JsonValue>> metrics;
  bool begun = false;
  bool finished = false;
};

BenchRecord::BenchRecord() : impl_(new Impl) {}

BenchRecord& BenchRecord::Instance() {
  static BenchRecord* record = new BenchRecord;  // leaked by design
  return *record;
}

void BenchRecord::Begin(std::string_view name) {
  if (impl_->begun) return;
  impl_->begun = true;
  impl_->name = std::string(name);
  impl_->start = std::chrono::steady_clock::now();
}

void BenchRecord::FoldChecksum(std::string_view bytes) {
  std::uint64_t h = impl_->checksum;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  impl_->checksum = h;
}

void BenchRecord::SetMetric(std::string_view key, double value) {
  for (auto& [k, v] : impl_->metrics) {
    if (k == key) {
      v = JsonValue::Number(value);
      return;
    }
  }
  impl_->metrics.emplace_back(std::string(key), JsonValue::Number(value));
}

void BenchRecord::SetIntMetric(std::string_view key, std::int64_t value) {
  for (auto& [k, v] : impl_->metrics) {
    if (k == key) {
      v = JsonValue::Int(value);
      return;
    }
  }
  impl_->metrics.emplace_back(std::string(key), JsonValue::Int(value));
}

void BenchRecord::RecordRegistrySnapshot(const obs::MetricsRegistry& registry) {
  obs::MetricsRegistry::ExportOptions options;
  options.include_volatile = false;
  FoldChecksum(registry.ExportText(options));
  for (const auto& [name, value] : registry.CounterValues()) {
    SetIntMetric(name, value);
  }
}

std::string BenchRecord::ChecksumHex() const {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(impl_->checksum));
}

void BenchRecord::Finish() {
  if (!impl_->begun || impl_->finished) return;
  impl_->finished = true;

  const char* dir_env = std::getenv("AER_BENCH_JSON_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : ".";
  if (dir == "off") return;

  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - impl_->start)
          .count();

  JsonValue root = JsonValue::Object();
  root.Set("name", JsonValue::String(impl_->name));
  root.Set("scale", JsonValue::String(ScaleFromEnv()));
  root.Set("threads", JsonValue::Int(ThreadPool::DefaultThreadCount()));
  root.Set("wall_ms", JsonValue::Number(wall_ms));
  root.Set("checksum", JsonValue::String(ChecksumHex()));
  JsonValue metrics = JsonValue::Object();
  for (auto& [key, value] : impl_->metrics) {
    metrics.Set(key, std::move(value));
  }
  root.Set("metrics", std::move(metrics));

  const std::string path = dir + "/BENCH_" + impl_->name + ".json";
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    return;
  }
  out << root.ToString();
}

}  // namespace aer::bench
