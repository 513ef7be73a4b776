#include "common/profiler.h"

#include <utility>

#include "common/string_util.h"

namespace aer {

namespace {

// The '/'-joined names of the calling thread's open scopes.
std::string& ThreadPath() {
  thread_local std::string path;
  return path;
}

}  // namespace

ProfileRegistry& ProfileRegistry::Global() {
  // Leaked so scopes closing on detached threads during process exit still
  // find it.
  static ProfileRegistry* registry = new ProfileRegistry();
  return *registry;
}

void ProfileRegistry::Record(std::string_view path, std::int64_t elapsed_ns) {
  MutexLock lock(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(path), ProfileEntry{std::string(path)})
             .first;
  }
  ++it->second.calls;
  it->second.total_ns += elapsed_ns < 0 ? 0 : elapsed_ns;
}

std::vector<ProfileEntry> ProfileRegistry::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<ProfileEntry> out;
  out.reserve(entries_.size());
  for (const auto& [path, entry] : entries_) out.push_back(entry);
  return out;
}

void ProfileRegistry::Reset() {
  MutexLock lock(mu_);
  entries_.clear();
}

std::int64_t ProfileRegistry::TotalCalls() const {
  MutexLock lock(mu_);
  std::int64_t total = 0;
  for (const auto& [path, entry] : entries_) total += entry.calls;
  return total;
}

ProfileScope::ProfileScope(std::string_view name) {
  std::string& path = ThreadPath();
  parent_length_ = path.size();
  if (!path.empty()) path += '/';
  path += name;
  start_ = std::chrono::steady_clock::now();
}

ProfileScope::~ProfileScope() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  std::string& path = ThreadPath();
  ProfileRegistry::Global().Record(
      path,
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  path.resize(parent_length_);
}

std::string ProfileRegistry::FormatProfile(
    const std::vector<ProfileEntry>& entries, const FormatOptions& options) {
  std::string out;
  for (const ProfileEntry& entry : entries) {
    if (options.include_wall) {
      const double total_ms = static_cast<double>(entry.total_ns) / 1e6;
      const double avg_us =
          entry.calls > 0
              ? static_cast<double>(entry.total_ns) /
                    (1e3 * static_cast<double>(entry.calls))
              : 0.0;
      out += StrFormat("profile %s calls=%lld total_ms=%.3f avg_us=%.3f\n",
                       entry.path.c_str(),
                       static_cast<long long>(entry.calls), total_ms, avg_us);
    } else {
      out += StrFormat("profile %s calls=%lld\n", entry.path.c_str(),
                       static_cast<long long>(entry.calls));
    }
  }
  return out;
}

JsonValue ProfileRegistry::ProfileToJson(
    const std::vector<ProfileEntry>& entries, const FormatOptions& options) {
  JsonValue root = JsonValue::Array();
  for (const ProfileEntry& entry : entries) {
    JsonValue value = JsonValue::Object();
    value.Set("path", JsonValue::String(entry.path));
    value.Set("calls", JsonValue::Int(entry.calls));
    if (options.include_wall) {
      value.Set("total_ns", JsonValue::Int(entry.total_ns));
    }
    root.Append(std::move(value));
  }
  return root;
}

}  // namespace aer
