// ProfileRegistry: hierarchical paths, the thread-sharded deterministic
// merge, Reset semantics, and the deterministic (counts-only) formatting.
#include "common/profiler.h"

#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aer {
namespace {

static_assert(AER_PROFILING_IS_ON() == 1,
              "profiler_test.cc must build with profiling enabled; the "
              "compiled-out macro is covered by profiler_off_test.cc");

TEST(ProfilerTest, NestedScopesBuildHierarchicalPaths) {
  ProfileRegistry::Global().Reset();
  {
    AER_PROFILE_SCOPE("outer");
    {
      AER_PROFILE_SCOPE("inner");
    }
    {
      AER_PROFILE_SCOPE("inner");
    }
  }
  const std::vector<ProfileEntry> entries =
      ProfileRegistry::Global().Snapshot();
  ASSERT_EQ(entries.size(), 2u);  // sorted by path
  EXPECT_EQ(entries[0].path, "outer");
  EXPECT_EQ(entries[0].calls, 1);
  EXPECT_EQ(entries[1].path, "outer/inner");
  EXPECT_EQ(entries[1].calls, 2);
  EXPECT_GE(entries[0].total_ns, entries[1].total_ns);  // parent ⊇ children
}

// Repeated entries find their nodes in the cached child lists; each parent
// keeps its own, and a root of the same name is a third node.
TEST(ProfilerTest, SameNameUnderDifferentParentsStaysDistinct) {
  ProfileRegistry::Global().Reset();
  for (int i = 0; i < 3; ++i) {
    {
      AER_PROFILE_SCOPE("alpha");
      AER_PROFILE_SCOPE("step");
    }
    {
      AER_PROFILE_SCOPE("beta");
      AER_PROFILE_SCOPE("step");
    }
    {
      AER_PROFILE_SCOPE("step");
    }
  }
  const std::vector<ProfileEntry> entries =
      ProfileRegistry::Global().Snapshot();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].path, "alpha");
  EXPECT_EQ(entries[1].path, "alpha/step");
  EXPECT_EQ(entries[2].path, "beta");
  EXPECT_EQ(entries[3].path, "beta/step");
  EXPECT_EQ(entries[4].path, "step");
  for (const ProfileEntry& entry : entries) EXPECT_EQ(entry.calls, 3);
}

// A known (parent, name) pair is found by comparing name contents, so a
// name that reaches Enter through different storage is still one node.
TEST(ProfilerTest, OneNameThroughDifferentStorageIsOneNode) {
  ProfileRegistry registry;
  ProfileRegistry::Shard& shard = registry.LocalShard();
  const std::string heap_name = std::string("le") + "af";
  const char array_name[] = {'l', 'e', 'a', 'f', '\0'};
  shard.Enter("outer");
  for (const std::string_view name :
       {std::string_view("leaf"), std::string_view(heap_name),
        std::string_view(array_name), std::string_view("leafy").substr(0, 4)}) {
    shard.Enter(name);
    shard.Exit(1);
  }
  shard.Exit(1);
  const std::vector<ProfileEntry> entries = registry.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, "outer");
  EXPECT_EQ(entries[1].path, "outer/leaf");
  EXPECT_EQ(entries[1].calls, 4);
}

// A registry built at the address of a destroyed one, on the same thread,
// records into a shard of its own, not into the dead registry's.
TEST(ProfilerTest, RegistryAtADeadRegistrysAddressGetsItsOwnShard) {
  alignas(ProfileRegistry) unsigned char storage[sizeof(ProfileRegistry)];
  auto* first = new (storage) ProfileRegistry();
  first->LocalShard().Enter("first");
  first->LocalShard().Exit(1);
  EXPECT_EQ(first->TotalCalls(), 1);
  first->~ProfileRegistry();

  auto* second = new (storage) ProfileRegistry();
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  second->LocalShard().Enter("second");
  second->LocalShard().Exit(1);
  const std::vector<ProfileEntry> entries = second->Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "second");
  EXPECT_EQ(second->TotalCalls(), 1);
  second->~ProfileRegistry();
}

// A thread keeps no shard of a destroyed registry past its next new one:
// short-lived registries do not pile up in the thread's shard map.
TEST(ProfilerTest, ThreadShardMapHoldsOnlyLiveRegistries) {
  ProfileRegistry keeper;
  keeper.LocalShard();  // a miss: prunes whatever earlier tests left
  const std::size_t live = ProfileRegistry::ThreadShardEntriesForTesting();
  for (int i = 0; i < 1000; ++i) {
    ProfileRegistry registry;
    registry.LocalShard().Enter("short-lived");
    registry.LocalShard().Exit(1);
    keeper.LocalShard();  // switch back, as a caller of two registries does
    ASSERT_EQ(ProfileRegistry::ThreadShardEntriesForTesting(), live + 1)
        << "after registry " << i;
    EXPECT_EQ(registry.TotalCalls(), 1);
  }
  ProfileRegistry last;
  last.LocalShard();
  EXPECT_EQ(ProfileRegistry::ThreadShardEntriesForTesting(), live + 1);
  keeper.LocalShard().Enter("keeper");
  keeper.LocalShard().Exit(1);
  EXPECT_EQ(keeper.TotalCalls(), 1);
}

TEST(ProfilerTest, ShardsMergeAcrossThreads) {
  ProfileRegistry::Global().Reset();
  constexpr int kThreads = 4;
  constexpr int kIters = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([]() {
      for (int i = 0; i < kIters; ++i) {
        AER_PROFILE_SCOPE("worker");
        AER_PROFILE_SCOPE("task");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<ProfileEntry> entries =
      ProfileRegistry::Global().Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, "worker");
  EXPECT_EQ(entries[0].calls, kThreads * kIters);
  EXPECT_EQ(entries[1].path, "worker/task");
  EXPECT_EQ(entries[1].calls, kThreads * kIters);
  EXPECT_EQ(ProfileRegistry::Global().TotalCalls(), 2 * kThreads * kIters);
}

TEST(ProfilerTest, ResetPreservesOpenScopes) {
  ProfileRegistry::Global().Reset();
  {
    ProfileScope scope("epoch");
    // Resetting while the scope is open must not dangle its stack entry;
    // the exit lands one call in the fresh epoch.
    ProfileRegistry::Global().Reset();
  }
  const std::vector<ProfileEntry> entries =
      ProfileRegistry::Global().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "epoch");
  EXPECT_EQ(entries[0].calls, 1);
}

TEST(ProfilerTest, CountsOnlyFormatIsDeterministic) {
  ProfileRegistry::Global().Reset();
  {
    AER_PROFILE_SCOPE("fmt");
    AER_PROFILE_SCOPE("leaf");
  }
  const std::vector<ProfileEntry> entries =
      ProfileRegistry::Global().Snapshot();
  const std::string text =
      ProfileRegistry::FormatProfile(entries, {.include_wall = false});
  EXPECT_EQ(text, "profile fmt calls=1\nprofile fmt/leaf calls=1\n");
  const std::string json =
      ProfileRegistry::ProfileToJson(entries, {.include_wall = false})
          .ToString();
  EXPECT_NE(json.find("\"fmt/leaf\""), std::string::npos);
  EXPECT_EQ(json.find("total_ns"), std::string::npos);
  const std::string with_wall =
      ProfileRegistry::FormatProfile(entries, {.include_wall = true});
  EXPECT_NE(with_wall.find("total_ms="), std::string::npos);
}

TEST(ProfilerTest, LibraryInstrumentationIsRecorded) {
  // The instrumented hot paths (trainers, manager, simulator, pool) must
  // actually feed the registry; a representative direct check keeps the
  // macro from silently rotting into a no-op.
  ProfileRegistry::Global().Reset();
  const std::int64_t before = ProfileRegistry::Global().TotalCalls();
  {
    AER_PROFILE_SCOPE("probe");
  }
  EXPECT_EQ(ProfileRegistry::Global().TotalCalls(), before + 1);
}

}  // namespace
}  // namespace aer
