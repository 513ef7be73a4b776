#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/profiler.h"
#include "common/string_util.h"

namespace aer {

int ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("AER_THREADS")) {
    const auto parsed = ParseInt64(env);
    if (parsed.has_value() && *parsed > 0) {
      return static_cast<int>(*parsed < 512 ? *parsed : 512);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = num_threads > 0 ? num_threads : DefaultThreadCount();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // The joins order every worker's writes before this read, but the lock
  // discipline is "tasks_ is read under mu_" with no exceptions —
  // exceptions are exactly what the static analysis exists to rule out.
  MutexLock lock(mu_);
  AER_CHECK(tasks_.empty()) << "worker exited with tasks still queued";
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      // The predicate re-test lives in the function body, not a wait
      // lambda, so the analysis sees every read of tasks_/shutdown_ under
      // the lock.
      MutexLock lock(mu_);
      while (tasks_.empty() && !shutdown_) cv_.Wait(mu_);
      if (tasks_.empty()) return;  // shut down and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    AER_PROFILE_SCOPE("pool_task");
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // One index needs no helper: run it inline, without allocating the shared
  // control block (which would otherwise sit in the heap under everything
  // a one-shard fleet run allocates, and raise the later peak RSS).
  if (n == 1) {
    fn(0);
    return;
  }

  // Shared by the caller and the helper tasks; shared_ptr-owned so helpers
  // that only get scheduled after the caller has already returned (because
  // every index was long finished) still touch live state.
  struct Control {
    // Written before the helpers are queued and cleared only after the
    // completion barrier below, so no lock is needed (late helpers bail on
    // the exhausted counter before dereferencing).
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    Mutex mu;
    CondVar done_cv;
    std::size_t completed AER_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error AER_GUARDED_BY(mu);
  };
  auto control = std::make_shared<Control>();
  control->fn = &fn;
  control->n = n;

  const auto run_indices = [](const std::shared_ptr<Control>& c) {
    while (true) {
      const std::size_t i = c->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= c->n) return;
      std::exception_ptr error;
      try {
        (*c->fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      // Moving (not copying) the first error keeps one owner of the
      // exception at a time, so the thread that rethrows it is also the
      // one that frees it.
      MutexLock lock(c->mu);
      if (error && !c->first_error) c->first_error = std::move(error);
      if (++c->completed == c->n) c->done_cv.NotifyAll();
    }
  };

  // One helper per worker (capped by n - 1); the caller participates, so
  // the loop completes even if no helper ever gets a thread.
  const std::size_t helpers =
      workers_.size() < n - 1 ? workers_.size() : n - 1;
  {
    MutexLock lock(mu_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace_back([control, run_indices]() { run_indices(control); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.NotifyOne();
  run_indices(control);

  std::exception_ptr first_error;
  {
    MutexLock lock(control->mu);
    while (control->completed != control->n) control->done_cv.Wait(control->mu);
    // The caller's `fn` reference outlives every *executing* index here:
    // completed == n means no helper will touch fn again (late helpers bail
    // on the exhausted counter before dereferencing it).
    control->fn = nullptr;
    first_error = std::move(control->first_error);
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace aer
