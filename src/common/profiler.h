// Wall-clock scope profiler — the repo's only sanctioned use of wall time
// inside library code (docs/OBSERVABILITY.md has the full contract).
//
//   void QLearningTrainer::TrainType(...) {
//     AER_PROFILE_SCOPE("train_type");
//     ...
//   }
//
// AER_PROFILE_SCOPE(name) opens an RAII timer on the calling thread. Scopes
// nest: each thread keeps a stack of active scopes, and time is accumulated
// into a *hierarchical* node keyed by the path of enclosing scope names
// ("train_all/train_type"), so the profile reads like a flame graph
// collapsed by path. `name` must be a string literal (or otherwise outlive
// the process): nodes keep a copy, but the hot path compares by content,
// and short stable names keep that cheap.
//
// Sharding and merge: every thread owns a private shard (node tree + scope
// stack). Re-entering a known scope path is lock-free: the owner thread
// finds the node in its parent's child list. Only a path's first entry
// adds a node, under the shard mutex (only ever contended by a concurrent
// snapshot). Scope exit bumps per-node atomic counters lock-free.
// ProfileRegistry::Snapshot() merges all shards into one sorted-by-path
// list; addition of int64 call counts and nanosecond totals is commutative,
// so the merged profile is independent of thread count and registration
// order — the same deterministic-merge recipe MetricsRegistry::MergeFrom
// uses. The *wall times* themselves are of course nondeterministic;
// deterministic consumers (golden tests, `aerctl profile` without --wall)
// format calls only.
//
// Zero-cost when compiled out: configuring with -DAER_PROFILING=OFF defines
// AER_PROFILING_DISABLED globally and AER_PROFILE_SCOPE expands to nothing —
// not a disabled branch, *nothing* — so instrumented hot loops carry no
// overhead. A TU can also #define AER_PROFILING_DISABLED before including
// this header to get the compiled-out macro in an otherwise-enabled build
// (bench_training and tests/obs/profiler_off_test.cc prove the expansion is
// empty with a constexpr static_assert).
#ifndef AER_COMMON_PROFILER_H_
#define AER_COMMON_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aer {

// One merged profile node: the '/'-joined path of enclosing scope names,
// how often the scope was entered, and the total wall time spent inside it
// (including children — it is a scope timer, not a self-time profiler).
struct ProfileEntry {
  std::string path;
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;
};

class ProfileRegistry {
 public:
  // The process-wide registry AER_PROFILE_SCOPE records into.
  static ProfileRegistry& Global();

  ProfileRegistry();
  ProfileRegistry(const ProfileRegistry&) = delete;
  ProfileRegistry& operator=(const ProfileRegistry&) = delete;

  // Merged view over all thread shards: one entry per distinct path, sorted
  // by path, zero-call nodes omitted. Counts and times add across shards,
  // so the result is independent of thread interleaving.
  std::vector<ProfileEntry> Snapshot() const;

  // Zeroes every node's counters (structure and live scope stacks are
  // preserved, so this is safe while scopes are open — their exit times
  // simply land in the fresh epoch). For benches and tests.
  void Reset();

  // Total scope entries across all shards (= sum of Snapshot calls fields).
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

  // --- internal surface for ProfileScope (public for tests) ---

  class Shard {
   public:
    // Finds or creates the child node of the current stack top and pushes
    // it. A (parent, name) pair already entered is found in the parent's
    // owner-thread-only child list, without a lock; only the first entry
    // creates the node, under the shard mutex.
    void Enter(std::string_view name);
    // Pops the current node, adding `elapsed_ns` and one call to it.
    // Lock-free: the popped Node* is stable (unique_ptr-owned, never freed
    // before process exit) and its counters are atomics.
    void Exit(std::int64_t elapsed_ns);

   private:
    friend class ProfileRegistry;

    struct Node {
      std::string name;
      const Node* parent = nullptr;  // nullptr for roots
      std::atomic<std::int64_t> calls{0};
      std::atomic<std::int64_t> total_ns{0};
      // The nodes created under this one, in creation order. Read and
      // written only by the owner thread (Snapshot walks nodes_ instead).
      std::vector<Node*> children;
    };

    mutable Mutex mu_;
    // Creation-ordered node storage (parents precede children). Only the
    // structure is guarded; the atomic counters inside each node are
    // written lock-free.
    std::vector<std::unique_ptr<Node>> nodes_ AER_GUARDED_BY(mu_);
    // The root nodes and the active-scope stack. Owner-thread-only by
    // construction (LocalShard hands each thread its own shard), so
    // deliberately unguarded.
    std::vector<Node*> roots_;
    std::vector<Node*> stack_;
  };

  // The calling thread's shard of this registry (created and registered on
  // first use; the registry owns it, so snapshots taken after the thread
  // exits still see its data).
  Shard& LocalShard();

  // How many registries the calling thread's shard map holds entries for:
  // the live ones it used, plus destroyed ones not yet pruned by a miss.
  static std::size_t ThreadShardEntriesForTesting();

 private:
  // Unique per registry for the life of the process: threads find their
  // shard by it, so a registry built where a destroyed one lived does not
  // inherit the dead registry's shards.
  const std::uint64_t id_;
  mutable Mutex mu_;
  std::vector<std::shared_ptr<Shard>> shards_ AER_GUARDED_BY(mu_);
};

// RAII timer used by AER_PROFILE_SCOPE; usable directly when the macro's
// static name restriction is inconvenient.
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view name)
      : shard_(ProfileRegistry::Global().LocalShard()) {
    shard_.Enter(name);
    start_ = std::chrono::steady_clock::now();
  }
  ~ProfileScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    shard_.Exit(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileRegistry::Shard& shard_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aer

// AER_PROFILING_IS_ON() is a per-TU preprocessor fact, not a linkable
// constant: a TU that defines AER_PROFILING_DISABLED sees 0 even in a build
// where the library was compiled with profiling on.
#if defined(AER_PROFILING_DISABLED)
#define AER_PROFILING_IS_ON() 0
// Expands to nothing at all — an empty statement once the caller's trailing
// semicolon lands — so disabled builds carry zero overhead by construction.
#define AER_PROFILE_SCOPE(name)
#else
#define AER_PROFILING_IS_ON() 1
#define AER_PROFILE_INTERNAL_CAT2(a, b) a##b
#define AER_PROFILE_INTERNAL_CAT(a, b) AER_PROFILE_INTERNAL_CAT2(a, b)
#define AER_PROFILE_SCOPE(name)                                        \
  ::aer::ProfileScope AER_PROFILE_INTERNAL_CAT(aer_profile_scope_,     \
                                               __LINE__) {             \
    name                                                               \
  }
#endif

#endif  // AER_COMMON_PROFILER_H_
