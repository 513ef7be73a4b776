// ThreadPool unit and stress tests (docs/PARALLELISM.md). The stress cases
// are sized to be meaningful under TSan — the tsan CI leg runs this binary
// to verify the pool's locking discipline, and the robustness label pulls it
// into the fault-tolerance suite.
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace aer {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForResultIndependentOfThreadCount) {
  // The same deterministic per-index computation must produce identical
  // output for any worker count — the scheduling-independence half of the
  // determinism contract.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(257);
    pool.ParallelFor(out.size(), [&](std::size_t i) {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL * (i + 1);
      for (int k = 0; k < 1000; ++k) h = h * 6364136223846793005ULL + i;
      out[i] = h;
    });
    return out;
  };
  const std::vector<std::uint64_t> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstExceptionAfterFinishing) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(kN, [&](std::size_t i) {
      if (i == 123) throw std::runtime_error("index 123");
      ++completed;
    });
    FAIL() << "expected the index-123 exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 123");
  }
  // No cancellation: every other index still ran.
  EXPECT_EQ(completed.load(), static_cast<int>(kN) - 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // ParallelFor from inside a pool task must complete even when every
  // worker is itself blocked in an outer ParallelFor — the caller
  // participates, so progress never depends on a free worker.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, DestructorDrainsWhileBusy) {
  // "Shutdown while busy": with 8 workers and n = 2, the caller usually
  // finishes both indices before a worker wakes, so the loop's late helper
  // is still queued when the pool is destroyed. The destructor must run it
  // (it finds the counter exhausted and touches only its shared control
  // block) and join cleanly; the ASan and TSan legs check that it does.
  constexpr int kPools = 20;
  constexpr int kLoops = 25;
  std::atomic<int> ran{0};
  for (int p = 0; p < kPools; ++p) {
    ThreadPool pool(8);
    for (int l = 0; l < kLoops; ++l) {
      pool.ParallelFor(2, [&ran](std::size_t) { ++ran; });
    }
    // No waiting: the destructor must drain the queued helpers.
  }
  EXPECT_EQ(ran.load(), 2 * kPools * kLoops);
}

TEST(ThreadPoolTest, ContendedCounterStress) {
  // Many indices hammering one mutex-guarded counter plus one atomic — the
  // TSan leg verifies the pool introduces no data race around the hand-off
  // of the loop's closure to the helpers.
  ThreadPool pool(8);
  constexpr int kIndices = 2000;
  std::mutex mu;
  std::int64_t guarded = 0;
  std::atomic<std::int64_t> atomic_count{0};
  pool.ParallelFor(kIndices, [&](std::size_t) {
    ++atomic_count;
    std::lock_guard<std::mutex> lock(mu);
    ++guarded;
  });
  EXPECT_EQ(atomic_count.load(), kIndices);
  EXPECT_EQ(guarded, kIndices);
}

TEST(ThreadPoolTest, UnevenTasksAllComplete) {
  // Every eighth index is a long chain, the rest are short. Indices are
  // claimed one at a time from the shared counter, so idle threads keep
  // taking short ones while a long one runs, and all must finish.
  ThreadPool pool(4);
  const auto reps_of = [](std::size_t i) { return i % 8 == 0 ? 20000 : 10; };
  std::atomic<std::int64_t> sum{0};
  pool.ParallelFor(64, [&](std::size_t i) {
    std::int64_t local = 0;
    for (int k = 0; k < reps_of(i); ++k) local += k;
    sum += local;
  });
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    for (int k = 0; k < reps_of(i); ++k) expected += k;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, ParallelForFromSeveralOutsideThreads) {
  // Several plain threads share one pool, each running its own loops on it
  // at once (the bench layout). Every loop's helpers queue on the same FIFO;
  // each index of each loop must still run exactly once.
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kLoops = 20;
  constexpr std::size_t kN = 500;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int l = 0; l < kLoops; ++l) {
        pool.ParallelFor(kN, [&hits, c](std::size_t i) { ++hits[c][i]; });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), kLoops) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, NullPoolRunsIndicesInOrderOnTheCaller) {
  // The pool-or-loop helper without a pool: a plain loop, in index order,
  // on the calling thread.
  std::vector<std::size_t> order;
  std::vector<std::thread::id> threads;
  ParallelFor(nullptr, 6, [&](std::size_t i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  for (const std::thread::id id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  ParallelFor(nullptr, 0, [&](std::size_t) { ADD_FAILURE(); });
}

TEST(ThreadPoolTest, DefaultThreadCountRespectsEnvOverride) {
  // setenv is not thread-safe against concurrent getenv, but gtest runs
  // tests sequentially in-process and the pool spawned here reads the
  // variable before this function returns.
  const char* saved = std::getenv("AER_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  setenv("AER_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ThreadPool pool;  // num_threads <= 0 -> DefaultThreadCount()
  EXPECT_EQ(pool.num_threads(), 3);
  setenv("AER_THREADS", "0", 1);  // nonsense values clamp to >= 1
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  if (saved != nullptr) {
    setenv("AER_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("AER_THREADS");
  }
}

}  // namespace
}  // namespace aer
