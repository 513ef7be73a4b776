// Fork-join thread pool — the repo's one concurrency primitive.
//
// Training is embarrassingly parallel across error types (one Q-table and
// one derived RNG stream per type, see docs/PARALLELISM.md), bootstrap
// resamples are independent, fleet shards own disjoint machine ranges, and
// merge chunks write disjoint output ranges. Every one of them is a loop over
// independent indices, so the pool offers exactly that: ParallelFor. The
// tree has a single, TSan-exercised scheduler instead of ad-hoc std::thread
// spawns (tools/aer_lint.py rule `thread-containment` enforces it).
//
// Design: ParallelFor hands out indices from one atomic counter. It queues
// up to one helper task per worker on a single FIFO, guarded by one mutex,
// and then claims indices itself until the counter runs out. Each helper
// claims indices the same way. Workers sleep on one condition variable
// while the FIFO is empty.
//
// Guarantees:
//   - ParallelFor() runs the closure over [0, n) with the *calling thread
//     participating*, so it completes even when no worker is free and never
//     deadlocks when called from inside a pool task. The first exception
//     thrown by any index is rethrown in the caller after all indices
//     finish.
//   - The destructor drains: every helper already queued runs (and finds
//     the counter exhausted, if its loop is long done) before the workers
//     join.
//
// Determinism note: the pool decides *which thread* runs an index, never
// what the index computes. Anything that must be bit-reproducible derives
// its RNG stream from stable identifiers (DeriveStream in common/rng.h),
// not from scheduling order.
//
// Lock discipline is stated in the types (common/thread_annotations.h): the
// task FIFO and the shutdown flag are guarded by `mu_`. A Clang build with
// -Werror=thread-safety proves every access holds the lock.
#ifndef AER_COMMON_THREAD_POOL_H_
#define AER_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aer {

class ThreadPool {
 public:
  // `num_threads` <= 0 picks DefaultThreadCount().
  explicit ThreadPool(int num_threads = 0);

  // Runs every queued helper, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // AER_THREADS environment variable if set (clamped to >= 1), otherwise
  // std::thread::hardware_concurrency() (>= 1).
  static int DefaultThreadCount();

  // Runs fn(i) for every i in [0, n), spreading indices over the workers
  // with the calling thread participating; returns when all have finished.
  // Rethrows the first exception (in order of detection); remaining
  // indices still run (no cancellation — tasks are short).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ AER_GUARDED_BY(mu_);
  bool shutdown_ AER_GUARDED_BY(mu_) = false;
};

// The one pool-or-loop rule: pool->ParallelFor(n, fn) when `pool` is set,
// otherwise fn(0), ..., fn(n - 1) in order on the calling thread.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace aer

#endif  // AER_COMMON_THREAD_POOL_H_
