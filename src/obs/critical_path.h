// Critical-path attribution: where did each cure's latency go?
//
// AnalyzeCriticalPaths walks one trace's records with a monotonic time
// cursor from the first incident to the cure and classifies every instant of
// [start, end) into exactly one named stage — so per-stage durations sum
// EXACTLY to the end-to-end sim-time latency, with no gaps and no double
// counting (duplicate-flagged hops and stale attempts never advance the
// cursor). Control-plane waits are overlaid with the global leadership
// timeline: sub-intervals with no leaseholder become `election_wait`, and
// the span between the issuing coordinator's crash and the adopting leader's
// re-dispatch becomes `takeover_gap`.
//
// The stage catalog is FROZEN, like the metric catalog: every name wrapped
// in AER_TRACE_STAGE below must appear as a `stage:<name>` token in
// docs/OBSERVABILITY.md (enforced by the aer_lint `stage-catalog` rule), and
// each stage has a histogram `aer_trace_stage_<name>_seconds` in the frozen
// metric catalog.
#ifndef AER_OBS_CRITICAL_PATH_H_
#define AER_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

// Marks a critical-path stage name registration for the aer_lint
// `stage-catalog` rule: every name passed through this macro must appear in
// the docs/OBSERVABILITY.md stage catalog as `stage:<name>`.
#define AER_TRACE_STAGE(name) name

namespace aer::obs {

class MetricsRegistry;

// The frozen stage vocabulary. Values are the export encoding: append-only,
// never renumber.
enum class TraceStage : int {
  kDetect = 0,           // incident injected → symptom admitted by a leader
  kElectionWait = 1,     // any wait spent with no leaseholder
  kDispatchQueue = 2,    // symptom admitted → action dispatched
  kFenceAdmit = 3,       // machine-side fence admission (zero-width marker)
  kDispatchTransit = 4,  // dispatch on the wire → machine starts executing
  kActionExec = 5,       // machine executing the repair action
  kResultTransit = 6,    // action finished → result back at the issuer
  kTimeoutWait = 7,      // failed/lost attempt → next dispatch
  kTakeoverGap = 8,      // issuer crashed → adopting leader re-dispatches
};

inline constexpr int kNumTraceStages = 9;

std::string_view TraceStageName(TraceStage stage);

// "aer_trace_stage_<name>_seconds" — the per-stage histogram name.
std::string TraceStageMetricName(TraceStage stage);

// One contiguous attributed interval [from, to) of a process's lifetime.
// fence_admit markers are the only zero-width (from == to) segments.
struct StageSegment {
  TraceStage stage = TraceStage::kDetect;
  SimTime from = 0;
  SimTime to = 0;
};

struct CriticalPath {
  TraceId trace_id = kNoTrace;
  std::int64_t machine = -1;
  SimTime start = 0;
  SimTime end = 0;
  bool cured = false;
  // The ring evicted the trace's kIncident root, so start is a later record
  // and the latency would be understated; never published as a metric.
  bool truncated = false;
  int attempts = 0;  // dispatches on the critical path
  // Per-stage totals; for cured processes these sum to exactly end - start.
  std::array<SimTime, kNumTraceStages> stage_seconds{};
  // The attributed timeline, in order; non-zero-width segments partition
  // [start, end).
  std::vector<StageSegment> segments;

  SimTime total_seconds() const {
    SimTime total = 0;
    for (const SimTime s : stage_seconds) total += s;
    return total;
  }
};

// One CriticalPath per process of BuildTraceDag(records), in the same
// order. Uncured processes get the attribution up to their last on-path
// event with cured == false.
std::vector<CriticalPath> AnalyzeCriticalPaths(
    const std::vector<TraceRecord>& records);

// Publishes aer_trace_end_to_end_seconds plus one observation per stage
// that appears on each cured, untruncated path into the per-stage
// histograms.
void PublishCriticalPathMetrics(MetricsRegistry& registry,
                                const std::vector<CriticalPath>& paths);

// Deterministic plain-text rendering (aerctl golden surface).
std::string FormatCriticalPaths(const std::vector<CriticalPath>& paths);

}  // namespace aer::obs

#endif  // AER_OBS_CRITICAL_PATH_H_
