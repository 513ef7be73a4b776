// ProfileRegistry: hierarchical paths, counts summed across threads, Reset
// semantics, and the deterministic (counts-only) formatting.
#include "common/profiler.h"

#include <cstdint>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aer {
namespace {

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

// A name is keyed by its whole path: each parent keeps its own child, and a
// root of the same name is a third path.
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

// Paths are compared by content, so a name that reaches ProfileScope
// through different storage still lands on one path.
TEST(ProfilerTest, OneNameThroughDifferentStorageIsOneNode) {
  ProfileRegistry::Global().Reset();
  const std::string heap_name = std::string("le") + "af";
  const char array_name[] = {'l', 'e', 'a', 'f', '\0'};
  {
    ProfileScope outer("outer");
    for (const std::string_view name :
         {std::string_view("leaf"), std::string_view(heap_name),
          std::string_view(array_name),
          std::string_view("leafy").substr(0, 4)}) {
      ProfileScope leaf(name);
    }
  }
  const std::vector<ProfileEntry> entries =
      ProfileRegistry::Global().Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, "outer");
  EXPECT_EQ(entries[0].calls, 1);
  EXPECT_EQ(entries[1].path, "outer/leaf");
  EXPECT_EQ(entries[1].calls, 4);
}

// A registry built at the address of a destroyed one starts empty: it
// inherits nothing the dead registry recorded.
TEST(ProfilerTest, RegistryAtADeadRegistrysAddressGetsItsOwnShard) {
  alignas(ProfileRegistry) unsigned char storage[sizeof(ProfileRegistry)];
  auto* first = new (storage) ProfileRegistry();
  first->Record("first", 1);
  EXPECT_EQ(first->TotalCalls(), 1);
  first->~ProfileRegistry();

  auto* second = new (storage) ProfileRegistry();
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  EXPECT_EQ(second->TotalCalls(), 0);
  second->Record("second", -5);  // a negative time counts as 0
  const std::vector<ProfileEntry> entries = second->Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "second");
  EXPECT_EQ(entries[0].total_ns, 0);
  EXPECT_EQ(second->TotalCalls(), 1);
  second->~ProfileRegistry();
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
    // Resetting while the scope is open must not lose its path; the exit
    // lands one call in the fresh epoch.
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
  // The instrumented scopes (trainers, simulator, harness, pool) must
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
