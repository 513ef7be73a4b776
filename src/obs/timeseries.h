// Time-series telemetry: windowed deltas of the metrics registry.
//
// A TimeSeriesRecorder watches one MetricsRegistry and slices its evolution
// into half-open windows [start, end) on a configurable cadence. The
// position axis is caller-defined — the injection harness advances it with
// sim time, the training bench with cumulative episode counts — so the same
// recorder covers both "per simulated hour" and "per N episodes" series.
//
// Windows hold *deltas*, not absolutes: counter increments, histogram/stat
// observation-count increments, and the gauge values at close. Closed
// windows live in a bounded ring (oldest evicted first), so a long run keeps
// a recent, fixed-memory trend instead of an unbounded log.
//
// Cadence semantics: AdvanceTo(p) closes the open window once p reaches the
// next multiple of `window_width`. If p jumps several widths at once the
// window closes *late* — one window spanning [start, floor(p / width) *
// width) — rather than emitting a run of empty filler windows. Every window
// therefore records its actual start and end; consumers must read them
// instead of assuming a uniform grid. Finish(p) closes the in-progress
// window at exactly p (a partial window) at end of run.
//
// Determinism: positions come from sim time or episode counts, and deltas
// from deterministic metrics, so same-seed runs export byte-identical
// series (volatile gauges are excluded unless `include_volatile`). The
// recorder itself registers two meta counters, aer_ts_windows_total and
// aer_ts_windows_dropped_total; they are bumped after the closing snapshot,
// so their own increments show up in the *next* window's deltas.
#ifndef AER_OBS_TIMESERIES_H_
#define AER_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace aer::obs {

struct TimeSeriesConfig {
  // Window width in position units (sim seconds, episodes, ...).
  std::int64_t window_width = 3600;
  // Maximum closed windows retained; the oldest is evicted beyond this.
  std::size_t capacity = 256;
  // When false (default), volatile (wall-clock-derived) gauges are omitted
  // so exports stay a pure function of (code, seed, scale).
  bool include_volatile = false;
  // Static labels prepended to every exported sample's label set (job,
  // cluster, scenario, ...). Values may contain arbitrary bytes; the text
  // exporter escapes them per the Prometheus exposition format.
  std::vector<std::pair<std::string, std::string>> labels = {};
};

// One closed window. Delta lists hold only metrics that changed during the
// window; gauge_values holds every (non-volatile) gauge's value at close.
// All lists are sorted by metric name.
struct TimeSeriesWindow {
  std::int64_t index = 0;  // sequence number over all closed windows
  std::int64_t start = 0;  // inclusive position where the window opened
  std::int64_t end = 0;    // exclusive position where it closed
  std::vector<std::pair<std::string, std::int64_t>> counter_deltas;
  std::vector<std::pair<std::string, double>> gauge_values;
  // Histogram/stat observation-count increments, merged into one list.
  std::vector<std::pair<std::string, std::int64_t>> observation_deltas;
};

class TimeSeriesRecorder {
 public:
  // Takes a baseline snapshot immediately: the first window's deltas cover
  // only changes made after construction. The registry must outlive the
  // recorder.
  TimeSeriesRecorder(MetricsRegistry& registry, TimeSeriesConfig config);

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  // Moves the position forward (monotonically; CHECK-fails on regress) and
  // closes the open window if the cadence boundary was crossed.
  void AdvanceTo(std::int64_t position);

  // Closes the in-progress window at exactly `position`, even mid-cadence.
  // No-op for an empty partial window at a boundary. Call at end of run so
  // the tail of the series is not lost.
  void Finish(std::int64_t position);

  // Copy of the ring, oldest window first.
  std::vector<TimeSeriesWindow> Windows() const;

  std::int64_t windows_closed() const;
  std::int64_t windows_dropped() const;
  const TimeSeriesConfig& config() const { return config_; }

  // Prometheus-style exposition: per window, one `# window` comment line
  // followed by sample lines
  //   <name>_delta{window="i",start="s",end="e"} <int>         (counters)
  //   <name>{window="i",start="s",end="e"} <double>            (gauges)
  //   <name>_observations{window="i",start="s",end="e"} <int>  (histograms,
  //                                                             stats)
  // Deterministic: windows in ring order, names sorted, doubles %.17g.
  std::string ExportText() const;

  // The same content as JSON: {window_width, capacity, closed, dropped,
  // windows: [{index, start, end, counters, gauges, observations}]}.
  JsonValue ExportJson() const;

 private:
  void CloseWindowLocked(std::int64_t end) AER_REQUIRES(mu_);

  MetricsRegistry& registry_;
  const TimeSeriesConfig config_;

  mutable Mutex mu_;
  // Highest position seen.
  std::int64_t position_ AER_GUARDED_BY(mu_) = 0;
  // Open window's start.
  std::int64_t window_start_ AER_GUARDED_BY(mu_) = 0;
  // == windows closed so far.
  std::int64_t next_index_ AER_GUARDED_BY(mu_) = 0;
  std::int64_t dropped_ AER_GUARDED_BY(mu_) = 0;
  // Registry snapshot at the last close.
  MetricsSnapshot last_ AER_GUARDED_BY(mu_);
  std::deque<TimeSeriesWindow> ring_ AER_GUARDED_BY(mu_);
};

}  // namespace aer::obs

#endif  // AER_OBS_TIMESERIES_H_
