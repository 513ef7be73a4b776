// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// The benchmark wraps each call into a library layer in a span: name,
// start, end, parent, and the recording thread. Spans stay in memory until
// the run ends, when the benchmark derives per-layer self times from them
// and writes them out as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing). Nothing here touches the library: the spans are taken
// around public calls from the benchmark's own code.
//
// Two kinds of span:
//   - layer spans form the sequential call tree of one pass; a layer span's
//     self time is its duration minus the union of its layer-span children,
//     so the self times of one pass sum to the pass's wall time;
//   - detail spans mark work that runs concurrently inside a layer span
//     (one per error type on the thread pool). They never reduce their
//     parent's self time; the benchmark aggregates them separately.
#ifndef AER_E2EBENCH_SPAN_TRACE_H_
#define AER_E2EBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace aer::e2e {

using Clock = std::chrono::steady_clock;

inline constexpr int kNoSpan = -1;

struct SpanRecord {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = kNoSpan;
  int thread = 0;  // dense index in first-use order; 0 is the first thread
  bool detail = false;
};

class SpanTrace {
 public:
  explicit SpanTrace(std::string run_id);

  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  // Opens a span on the calling thread; returns its id. Thread-safe.
  int Begin(std::string name, int parent, bool detail = false);
  void End(int id);

  // Copy of every span recorded so far, in Begin() order.
  std::vector<SpanRecord> Spans() const;

  // Duration of `id` minus the union of its layer-span children, in seconds.
  static double SelfSeconds(const std::vector<SpanRecord>& spans, int id);
  static double Seconds(const SpanRecord& span);

  // Writes every span as a Chrome trace-event "X" event; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int ThreadIndexLocked(std::thread::id id);

  const std::string run_id_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;            // guarded by mu_
  std::vector<std::thread::id> threads_;     // guarded by mu_
};

// RAII span; a null trace records nothing, so untraced passes share the
// traced passes' code.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, std::string name, int parent,
             bool detail = false)
      : trace_(trace),
        id_(trace != nullptr ? trace->Begin(std::move(name), parent, detail)
                             : kNoSpan) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanTrace* trace_;
  int id_;
};

}  // namespace aer::e2e

#endif  // AER_E2EBENCH_SPAN_TRACE_H_
