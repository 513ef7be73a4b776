// Crash flight recorder: a last-gasp dump of recent observability state.
//
// Once installed, a fatal event — an AER_CHECK failure (via the
// CheckFailureHook in common/check.h) or a fatal signal (SIGSEGV, SIGBUS,
// SIGFPE, SIGILL, SIGABRT) — writes one JSON file containing the stitched
// DAG of the most recent trace records, a full metrics snapshot, the most
// recent time-series window, and the merged wall-clock profile, then lets the
// process die as it would have. The dump answers "what was the system doing
// right before it fell over" without a debugger or a re-run.
//
// Honesty about signal safety: the dump path allocates and takes the
// collector/registry mutexes, which is not async-signal-safe. That is the
// standard flight-recorder trade-off — a crash *inside* those locks may
// hang or re-fault instead of dumping, and the reentrancy guard plus the
// re-raised signal make sure the process still terminates. Dumps are
// best-effort diagnostics, never part of any correctness contract.
//
// The dump schema is documented in docs/OBSERVABILITY.md. Test binaries
// install a recorder automatically when AER_FLIGHT_RECORD_DIR is set (see
// tests/test_main.cc); CI uploads the dumps of failed test runs.
#ifndef AER_OBS_FLIGHT_RECORDER_H_
#define AER_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace_collector.h"

namespace aer::obs {

struct FlightRecorderConfig {
  // Dump file path. The file is created (truncated) only when a dump
  // actually fires.
  std::string path;
  // Most recent causal trace records stitched into the dump's trace DAG.
  std::size_t max_trace_records = 512;
};

// Static-only: there is one process-wide recorder, mirroring the one
// process-wide set of crash hooks.
class FlightRecorder {
 public:
  FlightRecorder() = delete;

  // Installs the recorder: stores the sources (any may be null; non-null
  // ones must outlive the installation), registers the AER_CHECK failure
  // hook and the fatal-signal handlers. A second Install replaces the
  // sources; previously chained signal handlers are not restored until
  // Uninstall.
  static void Install(FlightRecorderConfig config,
                      const MetricsRegistry* metrics,
                      const TimeSeriesRecorder* timeseries,
                      const TraceCollector* traces = nullptr);

  // Removes the hook and restores the previous signal handlers.
  static void Uninstall();

  // Writes a dump immediately with reason "manual" (tests, debugging).
  // Returns false if nothing is installed or the file cannot be written.
  // Unlike crash dumps this does not consume the once-only guard.
  static bool DumpNow(std::string_view detail);

  static bool installed();
};

}  // namespace aer::obs

#endif  // AER_OBS_FLIGHT_RECORDER_H_
