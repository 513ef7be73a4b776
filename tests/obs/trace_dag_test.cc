// BuildTraceDag units: the frozen positional parent rules, orphan marking
// for loss events, global-event separation, acyclicity by construction,
// the deterministic renderings (FormatTraceDag text, TraceDagToJson,
// ChromeTraceJson) that back the aerctl golden surface, the truncated
// marker for ring-evicted roots, and the `aerctl trace` views.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"
#include "obs/trace_dag.h"

namespace aer::obs {
namespace {

TraceRecord Rec(TraceId id, SimTime time, TraceEventKind kind,
                std::int64_t machine, int attempt = -1) {
  TraceRecord r;
  r.trace_id = id;
  r.time = time;
  r.kind = kind;
  r.machine = machine;
  r.attempt = attempt;
  return r;
}

// A cured two-attempt process: attempt 0 is dispatched, executes, and its
// result reports failure; attempt 1 cures.
std::vector<TraceRecord> TwoAttemptProcess(TraceId id) {
  return {
      Rec(id, 100, TraceEventKind::kIncident, 4),
      Rec(id, 102, TraceEventKind::kSymptom, 4),
      Rec(id, 105, TraceEventKind::kDispatch, 4, 0),
      Rec(id, 106, TraceEventKind::kActionStart, 4, 0),
      Rec(id, 116, TraceEventKind::kActionDone, 4, 0),
      Rec(id, 117, TraceEventKind::kResultDeliver, 4, 0),
      Rec(id, 120, TraceEventKind::kDispatch, 4, 1),
      Rec(id, 121, TraceEventKind::kActionStart, 4, 1),
      Rec(id, 131, TraceEventKind::kActionDone, 4, 1),
      Rec(id, 131, TraceEventKind::kCure, 4),
      Rec(id, 132, TraceEventKind::kResultDeliver, 4, 1),
  };
}

TEST(TraceDagTest, ParentRulesFollowTheCausalChain) {
  const TraceId id = MakeTraceId(9, 4, 1);
  const TraceDag dag = BuildTraceDag(TwoAttemptProcess(id));
  ASSERT_EQ(dag.processes.size(), 1u);
  const TraceProcess& p = dag.processes[0];
  EXPECT_EQ(p.trace_id, id);
  EXPECT_EQ(p.machine, 4);
  EXPECT_TRUE(p.cured);
  EXPECT_EQ(p.start, 100);
  EXPECT_EQ(p.end, 131);
  ASSERT_EQ(p.nodes.size(), 11u);
  // [0] incident is the root.
  EXPECT_EQ(p.nodes[0].parent, -1);
  // [1] symptom hangs off the incident.
  EXPECT_EQ(p.nodes[1].parent, 0);
  // [2] dispatch 0 follows the admitted symptom.
  EXPECT_EQ(p.nodes[2].parent, 1);
  // [3] action_start follows its own attempt's dispatch.
  EXPECT_EQ(p.nodes[3].parent, 2);
  // [4] action_done follows its action_start; [5] result follows the done.
  EXPECT_EQ(p.nodes[4].parent, 3);
  EXPECT_EQ(p.nodes[5].parent, 4);
  // [6] dispatch 1 follows the previous attempt's delivered result — not
  // the symptom.
  EXPECT_EQ(p.nodes[6].parent, 5);
  // [7..8] attempt-1 execution chain.
  EXPECT_EQ(p.nodes[7].parent, 6);
  EXPECT_EQ(p.nodes[8].parent, 7);
  // [9] cure follows the latest action_done.
  EXPECT_EQ(p.nodes[9].parent, 8);
  // [10] the straggling attempt-1 result still matches its own done.
  EXPECT_EQ(p.nodes[10].parent, 8);
  // Acyclic by construction: parent < index everywhere, no orphans here.
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    EXPECT_LT(p.nodes[i].parent, static_cast<int>(i));
    EXPECT_FALSE(p.nodes[i].orphan);
  }
}

TEST(TraceDagTest, LossEventsAreOrphansAndChainsResumeEarlier) {
  const TraceId id = MakeTraceId(9, 2, 1);
  const TraceDag dag = BuildTraceDag({
      Rec(id, 10, TraceEventKind::kIncident, 2),
      Rec(id, 12, TraceEventKind::kSymptom, 2),
      Rec(id, 15, TraceEventKind::kDispatch, 2, 0),
      Rec(id, 16, TraceEventKind::kDispatchDrop, 2, 0),  // lost on the wire
      Rec(id, 40, TraceEventKind::kTimeout, 2, 0),
      Rec(id, 42, TraceEventKind::kDispatch, 2, 1),
      Rec(id, 43, TraceEventKind::kActionStart, 2, 1),
      Rec(id, 53, TraceEventKind::kActionDone, 2, 1),
      Rec(id, 53, TraceEventKind::kCure, 2),
      Rec(id, 54, TraceEventKind::kResultLost, 2, 1),  // issuer gone
  });
  ASSERT_EQ(dag.processes.size(), 1u);
  const auto& nodes = dag.processes[0].nodes;
  ASSERT_EQ(nodes.size(), 10u);
  // The drop is an orphan hanging off its dispatch.
  EXPECT_TRUE(nodes[3].orphan);
  EXPECT_EQ(nodes[3].parent, 2);
  // The timeout also points at the dispatch, not the drop: the causal
  // chain resumes from the last non-loss node.
  EXPECT_EQ(nodes[4].parent, 2);
  // The retry follows the timeout decision.
  EXPECT_EQ(nodes[5].parent, 4);
  // The lost result is an orphan off its attempt's done.
  EXPECT_TRUE(nodes[9].orphan);
  EXPECT_EQ(nodes[9].parent, 7);
}

TEST(TraceDagTest, GlobalEventsAndMultipleTracesSeparateCleanly) {
  const TraceId a = MakeTraceId(1, 0, 1);
  const TraceId b = MakeTraceId(1, 5, 1);
  TraceRecord elected = Rec(kNoTrace, 8, TraceEventKind::kLeaderElected, -1);
  elected.node = 0;
  const TraceDag dag = BuildTraceDag({
      elected,
      Rec(a, 10, TraceEventKind::kIncident, 0),
      Rec(b, 11, TraceEventKind::kIncident, 5),
      Rec(a, 12, TraceEventKind::kSymptom, 0),
      Rec(b, 13, TraceEventKind::kSymptom, 5),
  });
  ASSERT_EQ(dag.processes.size(), 2u);
  // Processes ordered by first appearance; records routed by trace id.
  EXPECT_EQ(dag.processes[0].trace_id, a);
  EXPECT_EQ(dag.processes[1].trace_id, b);
  EXPECT_EQ(dag.processes[0].nodes.size(), 2u);
  EXPECT_EQ(dag.processes[1].nodes.size(), 2u);
  ASSERT_EQ(dag.global_events.size(), 1u);
  EXPECT_EQ(dag.global_events[0].kind, TraceEventKind::kLeaderElected);
}

TEST(TraceDagTest, RenderingsAreDeterministic) {
  const TraceId id = MakeTraceId(9, 4, 1);
  const auto records = TwoAttemptProcess(id);
  const TraceDag dag = BuildTraceDag(records);
  const auto paths = AnalyzeCriticalPaths(records);
  const std::string text = FormatTraceDag(dag);
  EXPECT_EQ(text, FormatTraceDag(BuildTraceDag(records)));
  // The text rendering names every node and marks the root.
  EXPECT_NE(text.find("incident root"), std::string::npos);
  EXPECT_NE(text.find("cured=1"), std::string::npos);
  const std::string json = TraceDagToJson(dag).ToString();
  EXPECT_EQ(json, TraceDagToJson(BuildTraceDag(records)).ToString());
  EXPECT_NE(json.find("\"processes\""), std::string::npos);
  const std::string chrome = ChromeTraceJson(dag, paths);
  EXPECT_EQ(chrome, ChromeTraceJson(dag, paths));
  // Trace Event Format essentials: the event array, complete ("X") stage
  // events, and instant ("i") record events.
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"i\""), std::string::npos);
}

TEST(TraceDagTest, RingEvictedRootRendersTruncated) {
  const TraceId id = MakeTraceId(9, 4, 1);
  TraceCollector traces({.capacity = 10});
  for (const TraceRecord& r : TwoAttemptProcess(id)) traces.Record(r);
  const TraceDag dag = BuildTraceDag(traces.Snapshot());
  ASSERT_EQ(dag.processes.size(), 1u);
  EXPECT_TRUE(dag.processes[0].truncated);
  EXPECT_EQ(dag.processes[0].start, 102);
  EXPECT_NE(FormatTraceDag(dag).find("end=131 truncated\n"),
            std::string::npos);
  EXPECT_NE(TraceDagToJson(dag).ToString().find("\"truncated\": true"),
            std::string::npos);
  // An intact process carries no marker, so untruncated dumps keep their
  // bytes.
  const TraceDag intact = BuildTraceDag(TwoAttemptProcess(id));
  EXPECT_FALSE(intact.processes[0].truncated);
  EXPECT_EQ(FormatTraceDag(intact).find("truncated"), std::string::npos);
  EXPECT_EQ(TraceDagToJson(intact).ToString().find("truncated"),
            std::string::npos);
}

// One process per (machine, incident detail, start, end); the incident is
// the root unless `root` says otherwise.
TraceDag Processes(
    const std::vector<std::tuple<std::int64_t, std::string, SimTime, SimTime>>&
        specs,
    TraceEventKind root = TraceEventKind::kIncident) {
  std::vector<TraceRecord> records;
  TraceRecord elected = Rec(kNoTrace, 0, TraceEventKind::kLeaderElected, -1);
  elected.node = 0;
  records.push_back(elected);
  for (const auto& [machine, detail, start, end] : specs) {
    const TraceId id = MakeTraceId(2, machine, 1);
    TraceRecord first = Rec(id, start, root, machine);
    first.detail = detail;
    records.push_back(first);
    records.push_back(Rec(id, end, TraceEventKind::kSymptom, machine));
  }
  return BuildTraceDag(records);
}

std::vector<std::int64_t> Machines(const TraceDag& dag) {
  std::vector<std::int64_t> machines;
  for (const TraceProcess& p : dag.processes) machines.push_back(p.machine);
  return machines;
}

TEST(TraceDagTest, FilterByIncidentExactMatch) {
  const TraceDag dag = Processes({{1, "DiskError", 10, 20},
                                  {2, "Disk", 11, 21},
                                  {3, "DiskErrorX", 12, 22},
                                  {4, "Watchdog", 13, 23},
                                  {5, "DiskError", 14, 24}});
  const TraceDag filtered = FilterByIncident(dag, "DiskError");
  EXPECT_EQ(Machines(filtered), (std::vector<std::int64_t>{1, 5}));
  // Global events are context, not processes: the filter keeps them.
  EXPECT_EQ(filtered.global_events.size(), 1u);
  EXPECT_TRUE(FilterByIncident(dag, "NicDown").processes.empty());
  // A process whose incident root was evicted cannot be attributed.
  const TraceDag rootless =
      Processes({{1, "DiskError", 10, 20}}, TraceEventKind::kSymptom);
  EXPECT_TRUE(FilterByIncident(rootless, "DiskError").processes.empty());
}

TEST(TraceDagTest, LongestProcessesSortsAndBreaksTies) {
  const TraceDag dag = Processes({{1, "a", 0, 10},
                                  {2, "a", 1, 31},
                                  {3, "a", 2, 7},
                                  {4, "a", 3, 33},
                                  {5, "a", 4, 14}});
  // Durations 10, 30, 5, 30, 10: longest first, ties to the earlier
  // first appearance.
  EXPECT_EQ(Machines(LongestProcesses(dag, 4)),
            (std::vector<std::int64_t>{2, 4, 1, 5}));
  EXPECT_EQ(Machines(LongestProcesses(dag, 1)),
            (std::vector<std::int64_t>{2}));
  EXPECT_EQ(LongestProcesses(dag, 10).processes.size(), 5u);
  EXPECT_EQ(LongestProcesses(dag, 1).global_events.size(), 1u);
}

}  // namespace
}  // namespace aer::obs
