#include "obs/critical_path.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace_dag.h"

namespace aer::obs {

std::string_view TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kDetect:
      return AER_TRACE_STAGE("detect");
    case TraceStage::kElectionWait:
      return AER_TRACE_STAGE("election_wait");
    case TraceStage::kDispatchQueue:
      return AER_TRACE_STAGE("dispatch_queue");
    case TraceStage::kFenceAdmit:
      return AER_TRACE_STAGE("fence_admit");
    case TraceStage::kDispatchTransit:
      return AER_TRACE_STAGE("dispatch_transit");
    case TraceStage::kActionExec:
      return AER_TRACE_STAGE("action_exec");
    case TraceStage::kResultTransit:
      return AER_TRACE_STAGE("result_transit");
    case TraceStage::kTimeoutWait:
      return AER_TRACE_STAGE("timeout_wait");
    case TraceStage::kTakeoverGap:
      return AER_TRACE_STAGE("takeover_gap");
  }
  return "unknown";
}

std::string TraceStageMetricName(TraceStage stage) {
  return "aer_trace_stage_" + std::string(TraceStageName(stage)) + "_seconds";
}

namespace {

// Leadership presence and node crashes, distilled from the global
// (trace-less) records. Initially there is no leaseholder.
struct GlobalOverlay {
  // (time, has_leader after this instant), time-ordered.
  std::vector<std::pair<SimTime, bool>> leader_flips;
  // Crash times per coordinator, time-ordered.
  std::map<int, std::vector<SimTime>> crashes;
};

GlobalOverlay BuildOverlay(const std::vector<TraceRecord>& globals) {
  GlobalOverlay overlay;
  int leader = -1;
  for (const TraceRecord& r : globals) {
    switch (r.kind) {
      case TraceEventKind::kLeaderElected:
        if (leader < 0) overlay.leader_flips.emplace_back(r.time, true);
        leader = r.node;
        break;
      case TraceEventKind::kLeaderLost:
        if (r.node == leader) {
          leader = -1;
          overlay.leader_flips.emplace_back(r.time, false);
        }
        break;
      case TraceEventKind::kNodeCrash:
        overlay.crashes[r.node].push_back(r.time);
        if (r.node == leader) {
          leader = -1;
          overlay.leader_flips.emplace_back(r.time, false);
        }
        break;
      default:
        break;
    }
  }
  return overlay;
}

// The machine-visible wait states the cursor moves through. Detect,
// Dispatch, and Recovery are control-plane waits (leadership overlay
// applies); the rest are machine- or wire-bound.
enum class Wait {
  kDetect,    // incident injected, waiting for a leader to admit a symptom
  kDispatch,  // symptom admitted, waiting for the first dispatch
  kDelivery,  // dispatch on the wire, waiting for machine-side delivery
  kExec,      // action executing on the machine
  kResult,    // action finished, result on the wire back to the issuer
  kRecovery,  // attempt failed / lost / timed out; waiting for the next one
};

struct Walker {
  const GlobalOverlay& overlay;
  CriticalPath path;

  SimTime cursor = 0;
  Wait wait = Wait::kDetect;
  int current_attempt = -1;
  int last_issuer = -1;
  SimTime last_dispatch_time = -1;
  bool done = false;

  explicit Walker(const GlobalOverlay& overlay) : overlay(overlay) {}

  void AddSegment(TraceStage stage, SimTime from, SimTime to) {
    if (to < from) return;
    if (to > from) {
      path.stage_seconds[static_cast<int>(stage)] += to - from;
    } else if (stage != TraceStage::kFenceAdmit) {
      return;  // fence_admit is the only meaningful zero-width marker
    }
    if (!path.segments.empty() && path.segments.back().stage == stage &&
        path.segments.back().to == from) {
      path.segments.back().to = to;
      return;
    }
    path.segments.push_back({stage, from, to});
  }

  // Splits [from, to) at leadership flips: leaderless sub-intervals become
  // election_wait, the rest keep `base`.
  void AddWithLeadership(TraceStage base, SimTime from, SimTime to) {
    if (to <= from) return;
    bool leading = false;
    std::size_t i = 0;
    // State at `from` (a flip at exactly `from` applies to [from, ...)).
    while (i < overlay.leader_flips.size() &&
           overlay.leader_flips[i].first <= from) {
      leading = overlay.leader_flips[i].second;
      ++i;
    }
    SimTime pos = from;
    for (; i < overlay.leader_flips.size() &&
           overlay.leader_flips[i].first < to;
         ++i) {
      const auto& [flip_time, flip_leading] = overlay.leader_flips[i];
      if (flip_time > pos) {
        AddSegment(leading ? base : TraceStage::kElectionWait, pos, flip_time);
        pos = flip_time;
      }
      leading = flip_leading;
    }
    AddSegment(leading ? base : TraceStage::kElectionWait, pos, to);
  }

  // Classifies the control-plane wait [from, to). In Recovery the takeover
  // overlay applies: once the attempt's issuer has crashed (at or after the
  // dispatch), the remainder of the wait — up to the adopting leader's
  // re-dispatch at `to` — is the takeover resume gap.
  void AddControlWait(TraceStage base, SimTime from, SimTime to,
                      bool orphanable) {
    if (to <= from) return;
    SimTime gap_from = to;
    if (orphanable && last_issuer >= 0) {
      const auto it = overlay.crashes.find(last_issuer);
      if (it != overlay.crashes.end()) {
        for (const SimTime crash : it->second) {
          if (crash >= last_dispatch_time && crash < to) {
            gap_from = std::max(from, crash);
            break;
          }
        }
      }
    }
    AddWithLeadership(base, from, gap_from);
    AddSegment(TraceStage::kTakeoverGap, gap_from, to);
  }

  // Advances the cursor to `time`, attributing [cursor, time) to the
  // current wait state. A non-advancing time (e.g. a timeout record whose
  // deadline predates the cursor) is a state change only — the cursor never
  // moves backward, which is what keeps the stage sum exact.
  void AdvanceTo(SimTime time) {
    if (time <= cursor) return;
    switch (wait) {
      case Wait::kDetect:
        AddControlWait(TraceStage::kDetect, cursor, time, false);
        break;
      case Wait::kDispatch:
        AddControlWait(TraceStage::kDispatchQueue, cursor, time, false);
        break;
      case Wait::kDelivery:
        AddSegment(TraceStage::kDispatchTransit, cursor, time);
        break;
      case Wait::kExec:
        AddSegment(TraceStage::kActionExec, cursor, time);
        break;
      case Wait::kResult:
        AddSegment(TraceStage::kResultTransit, cursor, time);
        break;
      case Wait::kRecovery:
        AddControlWait(TraceStage::kTimeoutWait, cursor, time, true);
        break;
    }
    cursor = time;
  }

  // One record. Off-path records — duplicate-flagged hops, stale attempts,
  // re-emitted symptoms, overlapping incidents — never advance the cursor;
  // that is what makes the stage sum exact.
  void Step(const TraceRecord& r) {
    if (done) return;
    switch (r.kind) {
      case TraceEventKind::kIncident:
        // The root set the start; overlapping re-injections are annotations.
        break;
      case TraceEventKind::kSymptom:
        if (wait == Wait::kDetect) {
          AdvanceTo(r.time);
          wait = Wait::kDispatch;
        }
        break;
      case TraceEventKind::kDispatch:
        if (wait == Wait::kDispatch || wait == Wait::kRecovery ||
            wait == Wait::kDelivery) {
          AdvanceTo(r.time);
          wait = Wait::kDelivery;
          current_attempt = r.attempt;
          last_issuer = r.node;
          last_dispatch_time = r.time;
          ++path.attempts;
        }
        break;
      case TraceEventKind::kDispatchDrop:
      case TraceEventKind::kFenceReject:
      case TraceEventKind::kBusyDrop:
        if (wait == Wait::kDelivery && r.attempt == current_attempt &&
            !r.duplicate) {
          AdvanceTo(r.time);
          wait = Wait::kRecovery;
        }
        break;
      case TraceEventKind::kActionStart:
        if (wait == Wait::kDelivery && r.attempt == current_attempt &&
            !r.duplicate) {
          AdvanceTo(r.time);
          AddSegment(TraceStage::kFenceAdmit, r.time, r.time);
          wait = Wait::kExec;
        }
        break;
      case TraceEventKind::kActionDone:
        if (wait == Wait::kExec && r.attempt == current_attempt &&
            !r.duplicate) {
          AdvanceTo(r.time);
          wait = Wait::kResult;
        }
        break;
      case TraceEventKind::kCure:
        AdvanceTo(r.time);
        path.end = r.time;
        path.cured = true;
        done = true;
        break;
      case TraceEventKind::kResultDeliver:
      case TraceEventKind::kResultLost:
        if (wait == Wait::kResult && r.attempt == current_attempt &&
            !r.duplicate) {
          AdvanceTo(r.time);
          wait = Wait::kRecovery;
        }
        break;
      case TraceEventKind::kTimeout:
        if ((wait == Wait::kDelivery || wait == Wait::kExec ||
             wait == Wait::kResult) &&
            r.attempt == current_attempt) {
          AdvanceTo(r.time);
          wait = Wait::kRecovery;
        }
        break;
      default:
        break;  // kAdopt / drops of other kinds: annotations only
    }
    if (!done) path.end = std::max(path.end, cursor);
  }
};

}  // namespace

std::vector<CriticalPath> AnalyzeCriticalPaths(
    const std::vector<TraceRecord>& records) {
  const TraceDag dag = BuildTraceDag(records);
  const GlobalOverlay overlay = BuildOverlay(dag.global_events);
  std::vector<CriticalPath> paths;
  paths.reserve(dag.processes.size());
  for (const TraceProcess& process : dag.processes) {
    const TraceRecord& first = process.nodes.front().record;
    Walker walker(overlay);
    walker.path.trace_id = process.trace_id;
    walker.path.machine = first.machine;
    walker.path.truncated = process.truncated;
    walker.path.start = first.time;
    walker.path.end = first.time;
    walker.cursor = first.time;
    for (const TraceDagNode& node : process.nodes) walker.Step(node.record);
    paths.push_back(std::move(walker.path));
  }
  return paths;
}

void PublishCriticalPathMetrics(MetricsRegistry& registry,
                                const std::vector<CriticalPath>& paths) {
  Histogram& end_to_end =
      registry.GetHistogram("aer_trace_end_to_end_seconds");
  std::array<Histogram*, kNumTraceStages> stage_histograms{};
  for (int s = 0; s < kNumTraceStages; ++s) {
    stage_histograms[s] =
        &registry.GetHistogram(TraceStageMetricName(static_cast<TraceStage>(s)));
  }
  for (const CriticalPath& path : paths) {
    if (!path.cured || path.truncated) continue;
    end_to_end.Observe(static_cast<double>(path.end - path.start));
    std::array<bool, kNumTraceStages> present{};
    for (const StageSegment& segment : path.segments) {
      present[static_cast<int>(segment.stage)] = true;
    }
    for (int s = 0; s < kNumTraceStages; ++s) {
      if (!present[s]) continue;
      stage_histograms[s]->Observe(
          static_cast<double>(path.stage_seconds[s]));
    }
  }
}

std::string FormatCriticalPaths(const std::vector<CriticalPath>& paths) {
  std::string out;
  for (const CriticalPath& path : paths) {
    out += StrFormat(
        "critical-path trace=%016llx machine=%lld start=%lld end=%lld "
        "total=%lld attempts=%d cured=%d%s\n",
        static_cast<unsigned long long>(path.trace_id),
        static_cast<long long>(path.machine),
        static_cast<long long>(path.start),
        static_cast<long long>(path.end),
        static_cast<long long>(path.total_seconds()), path.attempts,
        path.cured ? 1 : 0, path.truncated ? " truncated" : "");
    out += "  stages:";
    for (int s = 0; s < kNumTraceStages; ++s) {
      out += StrFormat(
          " %s=%lld",
          std::string(TraceStageName(static_cast<TraceStage>(s))).c_str(),
          static_cast<long long>(path.stage_seconds[s]));
    }
    out += "\n";
    for (const StageSegment& segment : path.segments) {
      out += StrFormat(
          "  segment %s [%lld,%lld)\n",
          std::string(TraceStageName(segment.stage)).c_str(),
          static_cast<long long>(segment.from),
          static_cast<long long>(segment.to));
    }
  }
  return out;
}

}  // namespace aer::obs
