#include "obs/trace_dag.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"

namespace aer::obs {
namespace {

bool IsOrphanKind(TraceEventKind kind) {
  return kind == TraceEventKind::kDispatchDrop ||
         kind == TraceEventKind::kResultLost ||
         kind == TraceEventKind::kMessageDrop;
}

// Latest node before `upto` whose kind is in `kinds` (and, when
// `attempt` >= 0, whose attempt matches). -1 when none qualifies.
int LatestOf(const std::vector<TraceDagNode>& nodes, int upto,
             std::initializer_list<TraceEventKind> kinds, int attempt = -1) {
  for (int i = upto - 1; i >= 0; --i) {
    for (const TraceEventKind kind : kinds) {
      if (nodes[i].record.kind != kind) continue;
      if (attempt >= 0 && nodes[i].record.attempt != attempt) continue;
      return i;
    }
  }
  return -1;
}

// Frozen parent rules for the record about to be appended after `nodes`
// (so its index will be nodes.size() > 0). Returns an earlier index (falls
// back to the latest earlier node, so a parent always exists).
int ParentOf(const std::vector<TraceDagNode>& nodes, const TraceRecord& r) {
  const int index = static_cast<int>(nodes.size());
  int parent = -1;
  switch (r.kind) {
    case TraceEventKind::kIncident:  // overlapping re-injection
    case TraceEventKind::kSymptom:
      parent = 0;
      break;
    case TraceEventKind::kDispatch:
      // The decision a dispatch follows from: the admitted symptom, the
      // previous attempt's outcome, or the adopted replica.
      parent = LatestOf(nodes, index,
                        {TraceEventKind::kSymptom,
                         TraceEventKind::kResultDeliver,
                         TraceEventKind::kResultLost, TraceEventKind::kTimeout,
                         TraceEventKind::kAdopt, TraceEventKind::kIncident});
      break;
    case TraceEventKind::kDispatchDrop:
    case TraceEventKind::kFenceReject:
    case TraceEventKind::kBusyDrop:
    case TraceEventKind::kActionStart:
      parent = LatestOf(nodes, index, {TraceEventKind::kDispatch}, r.attempt);
      if (parent < 0) {
        parent = LatestOf(nodes, index, {TraceEventKind::kDispatch});
      }
      break;
    case TraceEventKind::kActionDone:
      parent =
          LatestOf(nodes, index, {TraceEventKind::kActionStart}, r.attempt);
      break;
    case TraceEventKind::kCure:
      parent = LatestOf(nodes, index, {TraceEventKind::kActionDone});
      break;
    case TraceEventKind::kResultDeliver:
    case TraceEventKind::kResultLost:
      parent =
          LatestOf(nodes, index, {TraceEventKind::kActionDone}, r.attempt);
      break;
    case TraceEventKind::kTimeout:
      parent = LatestOf(nodes, index, {TraceEventKind::kDispatch}, r.attempt);
      break;
    default:
      break;
  }
  return parent >= 0 ? parent : index - 1;
}

}  // namespace

TraceDag BuildTraceDag(const std::vector<TraceRecord>& records) {
  TraceDag dag;
  std::unordered_map<TraceId, std::size_t> index_of;
  for (const TraceRecord& record : records) {
    if (record.trace_id == kNoTrace) {
      dag.global_events.push_back(record);
      continue;
    }
    const auto [it, inserted] =
        index_of.try_emplace(record.trace_id, dag.processes.size());
    if (inserted) {
      TraceProcess process;
      process.trace_id = record.trace_id;
      process.machine = record.machine;
      process.start = record.time;
      process.truncated = record.kind != TraceEventKind::kIncident;
      dag.processes.push_back(std::move(process));
    }
    TraceProcess& process = dag.processes[it->second];
    TraceDagNode node;
    node.record = record;
    node.orphan = IsOrphanKind(record.kind);
    if (!process.nodes.empty()) {
      node.parent = ParentOf(process.nodes, record);
    }
    if (record.kind == TraceEventKind::kCure) {
      process.cured = true;
      process.end = record.time;
    } else if (!process.cured) {
      process.end = record.time;
    }
    if (process.machine < 0) process.machine = record.machine;
    process.nodes.push_back(std::move(node));
  }
  return dag;
}

namespace {

// One node line; frozen format (aerctl golden surface).
std::string FormatNode(int index, const TraceDagNode& node) {
  const TraceRecord& r = node.record;
  std::string line = StrFormat(
      "  [%d] t=%lld %s", index, static_cast<long long>(r.time),
      std::string(TraceEventKindName(r.kind)).c_str());
  line += node.parent < 0 ? " root" : StrFormat(" parent=%d", node.parent);
  if (r.node >= 0) line += StrFormat(" node=%d", r.node);
  if (r.attempt >= 0) line += StrFormat(" attempt=%d", r.attempt);
  if (r.action >= 0) line += StrFormat(" action=%d", r.action);
  if (r.epoch != 0) {
    line += StrFormat(" epoch=%llu",
                      static_cast<unsigned long long>(r.epoch));
  }
  if (r.duplicate) line += " dup";
  if (node.orphan) line += " orphan";
  if (!r.detail.empty()) line += " detail=" + r.detail;
  return line + "\n";
}

}  // namespace

std::string FormatTraceDag(const TraceDag& dag) {
  std::string out;
  for (const TraceProcess& process : dag.processes) {
    out += StrFormat(
        "trace %016llx machine=%lld nodes=%llu cured=%d start=%lld "
        "end=%lld%s\n",
        static_cast<unsigned long long>(process.trace_id),
        static_cast<long long>(process.machine),
        static_cast<unsigned long long>(process.nodes.size()),
        process.cured ? 1 : 0, static_cast<long long>(process.start),
        static_cast<long long>(process.end),
        process.truncated ? " truncated" : "");
    for (std::size_t i = 0; i < process.nodes.size(); ++i) {
      out += FormatNode(static_cast<int>(i), process.nodes[i]);
    }
  }
  if (!dag.global_events.empty()) {
    out += "global events:\n";
    for (const TraceRecord& r : dag.global_events) {
      std::string line = StrFormat(
          "  t=%lld %s", static_cast<long long>(r.time),
          std::string(TraceEventKindName(r.kind)).c_str());
      if (r.machine >= 0) {
        line += StrFormat(" machine=%lld", static_cast<long long>(r.machine));
      }
      if (r.node >= 0) line += StrFormat(" node=%d", r.node);
      if (r.epoch != 0) {
        line += StrFormat(" epoch=%llu",
                          static_cast<unsigned long long>(r.epoch));
      }
      if (!r.detail.empty()) line += " detail=" + r.detail;
      out += line + "\n";
    }
  }
  return out;
}

namespace {

JsonValue RecordToJson(const TraceRecord& r) {
  JsonValue node = JsonValue::Object();
  node.Set("time", JsonValue::Int(r.time));
  node.Set("kind", JsonValue::String(std::string(TraceEventKindName(r.kind))));
  if (r.machine >= 0) node.Set("machine", JsonValue::Int(r.machine));
  if (r.node >= 0) node.Set("node", JsonValue::Int(r.node));
  if (r.attempt >= 0) node.Set("attempt", JsonValue::Int(r.attempt));
  if (r.action >= 0) node.Set("action", JsonValue::Int(r.action));
  if (r.epoch != 0) {
    node.Set("epoch", JsonValue::Int(static_cast<std::int64_t>(r.epoch)));
  }
  if (r.duplicate) node.Set("duplicate", JsonValue::Bool(true));
  if (!r.detail.empty()) node.Set("detail", JsonValue::String(r.detail));
  return node;
}

}  // namespace

JsonValue TraceDagToJson(const TraceDag& dag) {
  JsonValue root = JsonValue::Object();
  JsonValue processes = JsonValue::Array();
  for (const TraceProcess& process : dag.processes) {
    JsonValue p = JsonValue::Object();
    p.Set("trace_id",
          JsonValue::String(StrFormat(
              "%016llx", static_cast<unsigned long long>(process.trace_id))));
    p.Set("machine", JsonValue::Int(process.machine));
    p.Set("start", JsonValue::Int(process.start));
    p.Set("end", JsonValue::Int(process.end));
    p.Set("cured", JsonValue::Bool(process.cured));
    if (process.truncated) p.Set("truncated", JsonValue::Bool(true));
    JsonValue nodes = JsonValue::Array();
    for (const TraceDagNode& node : process.nodes) {
      JsonValue n = RecordToJson(node.record);
      n.Set("parent", JsonValue::Int(node.parent));
      if (node.orphan) n.Set("orphan", JsonValue::Bool(true));
      nodes.Append(std::move(n));
    }
    p.Set("nodes", std::move(nodes));
    processes.Append(std::move(p));
  }
  root.Set("processes", std::move(processes));
  JsonValue globals = JsonValue::Array();
  for (const TraceRecord& r : dag.global_events) {
    globals.Append(RecordToJson(r));
  }
  root.Set("global_events", std::move(globals));
  return root;
}

TraceDag FilterByIncident(TraceDag dag, std::string_view symptom) {
  std::erase_if(dag.processes, [symptom](const TraceProcess& process) {
    const TraceRecord& root = process.nodes.front().record;
    return root.kind != TraceEventKind::kIncident || root.detail != symptom;
  });
  return dag;
}

TraceDag LongestProcesses(TraceDag dag, std::size_t n) {
  // Processes are in first-appearance order, so a stable sort hands ties
  // to the earlier one.
  std::stable_sort(dag.processes.begin(), dag.processes.end(),
                   [](const TraceProcess& a, const TraceProcess& b) {
                     return a.end - a.start > b.end - b.start;
                   });
  if (dag.processes.size() > n) dag.processes.resize(n);
  return dag;
}

}  // namespace aer::obs
