#include "common/profiler.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace aer {

namespace {

// Id 0 is never handed out: it marks an empty LocalShard cache.
std::atomic<std::uint64_t> next_registry_id{1};

// The calling thread's shard of each registry it used, by registry id.
using LocalShardMap =
    std::map<std::uint64_t, std::weak_ptr<ProfileRegistry::Shard>>;
LocalShardMap& LocalShards() {
  thread_local LocalShardMap shards;
  return shards;
}

}  // namespace

ProfileRegistry::ProfileRegistry()
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

ProfileRegistry& ProfileRegistry::Global() {
  // Leaked so shards referenced from thread_locals of detached threads stay
  // valid through process exit.
  static ProfileRegistry* registry = new ProfileRegistry();
  return *registry;
}

void ProfileRegistry::Shard::Enter(std::string_view name) {
  Node* parent = stack_.empty() ? nullptr : stack_.back();
  std::vector<Node*>& siblings = parent == nullptr ? roots_ : parent->children;
  for (Node* node : siblings) {
    if (node->name == name) {
      stack_.push_back(node);
      return;
    }
  }
  auto created = std::make_unique<Node>();
  created->name = std::string(name);
  created->parent = parent;
  Node* node = created.get();
  {
    MutexLock lock(mu_);
    nodes_.push_back(std::move(created));
  }
  siblings.push_back(node);
  stack_.push_back(node);
}

void ProfileRegistry::Shard::Exit(std::int64_t elapsed_ns) {
  AER_DCHECK(!stack_.empty()) << "profile scope exit without matching enter";
  // The stack holds stable Node pointers, so the hot exit path never touches
  // the guarded node storage: pop (owner-thread-only) plus two relaxed
  // atomic adds.
  Node* node = stack_.back();
  stack_.pop_back();
  node->calls.fetch_add(1, std::memory_order_relaxed);
  node->total_ns.fetch_add(elapsed_ns < 0 ? 0 : elapsed_ns,
                           std::memory_order_relaxed);
}

ProfileRegistry::Shard& ProfileRegistry::LocalShard() {
  // The shard this thread used last: a scope's entry then skips the map.
  struct Cached {
    std::uint64_t registry = 0;
    Shard* shard = nullptr;
  };
  thread_local constinit Cached cached;
  if (cached.registry == id_) return *cached.shard;
  // One shard per (thread, registry). The registry owns it, so snapshots
  // taken after a worker thread exits still see its data. The thread only
  // watches it: a destroyed registry's entry expires, and a miss prunes it.
  LocalShardMap& shards = LocalShards();
  Shard* shard = nullptr;
  if (const auto it = shards.find(id_); it != shards.end()) {
    shard = it->second.lock().get();
  } else {
    std::erase_if(shards, [](const auto& entry) {
      return entry.second.expired();
    });
    auto owned = std::make_shared<Shard>();
    shard = owned.get();
    shards.emplace(id_, owned);
    MutexLock lock(mu_);
    shards_.push_back(std::move(owned));
  }
  cached = {id_, shard};
  return *shard;
}

std::size_t ProfileRegistry::ThreadShardEntriesForTesting() {
  return LocalShards().size();
}

std::vector<ProfileEntry> ProfileRegistry::Snapshot() const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    MutexLock lock(mu_);
    shards = shards_;
  }
  std::map<std::string, ProfileEntry> merged;
  for (const std::shared_ptr<Shard>& shard : shards) {
    MutexLock lock(shard->mu_);
    // Parents are created before their children, so a single forward pass
    // can resolve every node's path from its parent's.
    std::map<const Shard::Node*, std::string> paths;
    for (const auto& owned : shard->nodes_) {
      const Shard::Node& node = *owned;
      const std::string path = node.parent == nullptr
                                   ? node.name
                                   : paths[node.parent] + "/" + node.name;
      paths[&node] = path;
      const std::int64_t calls =
          node.calls.load(std::memory_order_relaxed);
      if (calls == 0) continue;
      ProfileEntry& entry = merged[path];
      entry.path = path;
      entry.calls += calls;
      entry.total_ns += node.total_ns.load(std::memory_order_relaxed);
    }
  }
  std::vector<ProfileEntry> out;
  out.reserve(merged.size());
  for (auto& [path, entry] : merged) out.push_back(std::move(entry));
  return out;
}

void ProfileRegistry::Reset() {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    MutexLock lock(mu_);
    shards = shards_;
  }
  for (const std::shared_ptr<Shard>& shard : shards) {
    MutexLock lock(shard->mu_);
    for (const auto& node : shard->nodes_) {
      node->calls.store(0, std::memory_order_relaxed);
      node->total_ns.store(0, std::memory_order_relaxed);
    }
  }
}

std::int64_t ProfileRegistry::TotalCalls() const {
  std::int64_t total = 0;
  for (const ProfileEntry& entry : Snapshot()) total += entry.calls;
  return total;
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
