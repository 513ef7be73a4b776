// Wall-clock scope profiler — the repo's only sanctioned use of wall time
// inside library code (docs/OBSERVABILITY.md has the full contract).
//
//   void QLearningTrainer::TrainType(...) {
//     AER_PROFILE_SCOPE("train_type");
//     ...
//   }
//
// AER_PROFILE_SCOPE(name) opens an RAII timer on the calling thread. Scopes
// nest: each thread keeps the '/'-joined path of its open scopes, and time
// is accumulated under that *hierarchical* path ("train_all/train_type"),
// so the profile reads like a flame graph collapsed by path.
//
// Scopes are coarse by rule: one wraps a whole run, shard, type or pool
// task (tens of µs or more), never a per-event call. A scope's exit takes
// one mutex and one map look-up in the registry, which is noise at that
// grain. Call counts and nanosecond totals add, so the profile is
// independent of thread count and interleaving. The *wall times*
// themselves are of course nondeterministic; deterministic consumers
// (golden tests, `aerctl profile` without --wall) format calls only.
#ifndef AER_COMMON_PROFILER_H_
#define AER_COMMON_PROFILER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aer {

// One profile node: the '/'-joined path of enclosing scope names, how often
// the scope was entered, and the total wall time spent inside it (including
// children — it is a scope timer, not a self-time profiler).
struct ProfileEntry {
  std::string path;
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;
};

class ProfileRegistry {
 public:
  // The process-wide registry AER_PROFILE_SCOPE records into.
  static ProfileRegistry& Global();

  ProfileRegistry() = default;
  ProfileRegistry(const ProfileRegistry&) = delete;
  ProfileRegistry& operator=(const ProfileRegistry&) = delete;

  // Adds one call and `elapsed_ns` (a negative time counts as 0) to `path`.
  void Record(std::string_view path, std::int64_t elapsed_ns);

  // One entry per recorded path, sorted by path.
  std::vector<ProfileEntry> Snapshot() const;

  // Forgets every path. Safe while scopes are open: their exits simply land
  // in the fresh epoch. For benches and tests.
  void Reset();

  // Total scope entries (= sum of Snapshot calls fields).
  std::int64_t TotalCalls() const;

  struct FormatOptions {
    // With wall off, only paths and call counts are printed — a pure
    // function of the control flow, byte-stable for golden tests.
    bool include_wall = true;
  };
  // "profile <path> calls=<n> [total_ms=<x> avg_us=<y>]\n" per entry.
  static std::string FormatProfile(const std::vector<ProfileEntry>& entries,
                                   const FormatOptions& options);
  static JsonValue ProfileToJson(const std::vector<ProfileEntry>& entries,
                                 const FormatOptions& options);

 private:
  mutable Mutex mu_;
  // Keyed by path; each entry carries its own path, so Snapshot copies.
  std::map<std::string, ProfileEntry, std::less<>> entries_
      AER_GUARDED_BY(mu_);
};

// RAII timer used by AER_PROFILE_SCOPE; usable directly when the macro's
// static name restriction is inconvenient. Records into Global().
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view name);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  // Length of the thread's scope path before this scope appended its name.
  std::size_t parent_length_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aer

#define AER_PROFILE_INTERNAL_CAT2(a, b) a##b
#define AER_PROFILE_INTERNAL_CAT(a, b) AER_PROFILE_INTERNAL_CAT2(a, b)
#define AER_PROFILE_SCOPE(name)                                        \
  ::aer::ProfileScope AER_PROFILE_INTERNAL_CAT(aer_profile_scope_,     \
                                               __LINE__) {             \
    name                                                               \
  }

#endif  // AER_COMMON_PROFILER_H_
