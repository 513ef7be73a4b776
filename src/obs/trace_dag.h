// Stitching flat TraceRecords into per-process causal DAGs.
//
// BuildTraceDag groups a collector snapshot by trace id (in order of each
// trace's first record) and assigns every record a parent edge by frozen,
// purely positional rules: a node's parent is always an earlier node of the
// same trace, so the result is acyclic by construction and byte-identical
// for any producer thread/shard count (the input order is already
// canonicalized by TraceCollector). Loss events (dropped dispatches, lost
// results, dropped messages) are marked `orphan`: the causal chain ends
// there and the next progress hangs off an earlier node.
//
// Records with trace_id == kNoTrace (leadership, node-lifecycle and
// guarded-policy events) are kept aside as `global_events`; the
// critical-path analyzer overlays the leadership ones onto every process.
#ifndef AER_OBS_TRACE_DAG_H_
#define AER_OBS_TRACE_DAG_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/sim_time.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer::obs {

struct TraceDagNode {
  TraceRecord record;
  // Index of the parent node within the owning process, -1 for the root.
  // Invariant: parent < own index (acyclicity).
  int parent = -1;
  // True for loss events: this node has no causal descendants.
  bool orphan = false;
};

// One recovery process: every record sharing a trace id, in canonical
// (collector) order. nodes[0] is the root.
struct TraceProcess {
  TraceId trace_id = kNoTrace;
  std::int64_t machine = -1;
  SimTime start = 0;  // first record's time
  SimTime end = 0;    // cure time if cured, else last record's time
  bool cured = false;
  // The ring evicted this trace's kIncident root: nodes[0] is whatever
  // record survived, so start/end understate the process's real span.
  bool truncated = false;
  std::vector<TraceDagNode> nodes;
};

struct TraceDag {
  // Ordered by each process's first appearance in the record stream.
  std::vector<TraceProcess> processes;
  // trace_id == kNoTrace records, in stream order.
  std::vector<TraceRecord> global_events;
};

TraceDag BuildTraceDag(const std::vector<TraceRecord>& records);

// Deterministic plain-text rendering (one process block per trace, node
// lines indented). Part of the aerctl golden surface.
std::string FormatTraceDag(const TraceDag& dag);

// Deterministic JSON rendering: {processes: [...], global_events: [...]}.
JsonValue TraceDagToJson(const TraceDag& dag);

// Views for `aerctl trace`; both leave global_events untouched.
// Keeps the processes whose kIncident root carries `symptom` as its detail.
TraceDag FilterByIncident(TraceDag dag, std::string_view symptom);
// Keeps the n longest processes by end - start, longest first; ties go to
// the earlier first appearance.
TraceDag LongestProcesses(TraceDag dag, std::size_t n);

}  // namespace aer::obs

#endif  // AER_OBS_TRACE_DAG_H_
