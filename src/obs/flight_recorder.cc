#include "obs/flight_recorder.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/mutex.h"
#include "common/profiler.h"
#include "obs/trace_dag.h"

namespace aer::obs {
namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
constexpr std::size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);

const char* SignalName(int signo) {
  switch (signo) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
    case SIGABRT:
      return "SIGABRT";
  }
  return "unknown";
}

struct Installed {
  FlightRecorderConfig config;
  const MetricsRegistry* metrics = nullptr;
  const TimeSeriesRecorder* timeseries = nullptr;
  const TraceCollector* traces = nullptr;
  struct sigaction previous[kNumFatalSignals] = {};
  // Intrusive retire chain (see g_retired below).
  Installed* retired_next = nullptr;
};

// Guards installation state; never taken on the crash path (the handlers
// read `g_installed` via the atomic pointer only).
Mutex& InstallMutex() {
  static Mutex mu;
  return mu;
}

std::atomic<Installed*> g_installed{nullptr};

// State blocks are never freed: a crashing thread may have loaded the
// pointer just before another thread uninstalled. Uninstall chains the
// block here instead of dropping the last reference, so the deliberate
// retention stays *reachable* — LeakSanitizer would otherwise report each
// uninstalled block as lost. Guarded by InstallMutex().
Installed* g_retired = nullptr;

// One crash dump per process: a fault inside the dump path (or a cascading
// CHECK + abort) must not recurse.
std::atomic<bool> g_dumped{false};

bool WriteDump(const Installed& state, std::string_view reason,
               std::string_view detail) {
  JsonValue root = JsonValue::Object();
  root.Set("reason", JsonValue::String(reason));
  root.Set("detail", JsonValue::String(detail));

  if (state.metrics != nullptr) {
    root.Set("metrics", state.metrics->ExportJson());
  }

  JsonValue ts_section = JsonValue::Object();
  if (state.timeseries != nullptr) {
    ts_section.Set("closed",
                   JsonValue::Int(state.timeseries->windows_closed()));
    ts_section.Set("dropped",
                   JsonValue::Int(state.timeseries->windows_dropped()));
    const std::vector<TimeSeriesWindow> windows = state.timeseries->Windows();
    if (!windows.empty()) {
      const TimeSeriesWindow& w = windows.back();
      JsonValue window = JsonValue::Object();
      window.Set("index", JsonValue::Int(w.index));
      window.Set("start", JsonValue::Int(w.start));
      window.Set("end", JsonValue::Int(w.end));
      JsonValue counters = JsonValue::Object();
      for (const auto& [name, delta] : w.counter_deltas) {
        counters.Set(name, JsonValue::Int(delta));
      }
      window.Set("counters", std::move(counters));
      ts_section.Set("last_window", std::move(window));
    }
  }
  root.Set("timeseries", std::move(ts_section));

  if (state.traces != nullptr) {
    // The stitched DAG of the most recent recovery processes.
    std::vector<TraceRecord> records = state.traces->Snapshot();
    if (records.size() > state.config.max_trace_records) {
      records.erase(records.begin(),
                    records.end() - static_cast<std::ptrdiff_t>(
                                        state.config.max_trace_records));
    }
    root.Set("trace_dag", TraceDagToJson(BuildTraceDag(records)));
  }

  root.Set("profile",
           ProfileRegistry::ProfileToJson(ProfileRegistry::Global().Snapshot(),
                                          {.include_wall = true}));

  const std::string out = root.ToString();
  std::FILE* f = std::fopen(state.config.path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return written == out.size();
}

// Best-effort crash dump; see the signal-safety caveat in the header.
void CrashDump(std::string_view reason, std::string_view detail) {
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return;
  const Installed* state = g_installed.load(std::memory_order_acquire);
  if (state == nullptr) return;
  WriteDump(*state, reason, detail);
}

void CheckHook(const char* message) { CrashDump("check_failure", message); }

void SignalHandler(int signo) {
  CrashDump("signal", SignalName(signo));
  // Re-deliver with default disposition so the exit status (and any core
  // dump) look exactly as they would without the recorder.
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

void FlightRecorder::Install(FlightRecorderConfig config,
                             const MetricsRegistry* metrics,
                             const TimeSeriesRecorder* timeseries,
                             const TraceCollector* traces) {
  MutexLock lock(InstallMutex());
  Installed* state = g_installed.load(std::memory_order_acquire);
  const bool first = state == nullptr;
  // Never freed: a crashing thread may still hold the pointer while
  // another thread uninstalls. Uninstall retires the block to g_retired
  // (kept reachable) rather than deleting it.
  if (first) state = new Installed();
  state->config = std::move(config);
  state->metrics = metrics;
  state->timeseries = timeseries;
  state->traces = traces;
  if (first) {
    struct sigaction action = {};
    action.sa_handler = &SignalHandler;
    sigemptyset(&action.sa_mask);
    for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
      sigaction(kFatalSignals[i], &action, &state->previous[i]);
    }
  }
  g_installed.store(state, std::memory_order_release);
  SetCheckFailureHook(&CheckHook);
}

void FlightRecorder::Uninstall() {
  MutexLock lock(InstallMutex());
  Installed* state = g_installed.load(std::memory_order_acquire);
  if (state == nullptr) return;
  SetCheckFailureHook(nullptr);
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    sigaction(kFatalSignals[i], &state->previous[i], nullptr);
  }
  state->retired_next = g_retired;
  g_retired = state;
  g_installed.store(nullptr, std::memory_order_release);
}

bool FlightRecorder::DumpNow(std::string_view detail) {
  const Installed* state = g_installed.load(std::memory_order_acquire);
  if (state == nullptr) return false;
  return WriteDump(*state, "manual", detail);
}

bool FlightRecorder::installed() {
  return g_installed.load(std::memory_order_acquire) != nullptr;
}

}  // namespace aer::obs
