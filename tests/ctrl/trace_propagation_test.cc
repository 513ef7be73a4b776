// End-to-end trace propagation through the control plane: the causal DAG a
// run leaves in the TraceCollector, under chaos. Pins the ISSUE-level
// claims from docs/OBSERVABILITY.md "Distributed tracing":
//   - duplicated machine hops annotate the DAG but never double-count a
//     critical-path stage;
//   - dropped dispatches / lost results leave orphan edges, and the
//     timeout chain still cures everything;
//   - over a 50-seed chaos sweep, every cured trace's stage durations sum
//     EXACTLY to its end-to-end sim-time latency and every DAG is
//     well-formed (single root, parent < index, orphans only at loss
//     events);
//   - with the arms off, the trace byte stream is identical for 1, 3, and
//     5 coordinators, and attaching the collector does not perturb the run.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "ctrl/harness.h"
#include "obs/critical_path.h"
#include "obs/trace_collector.h"
#include "obs/trace_dag.h"

namespace aer::ctrl {
namespace {

ControlHarnessConfig BaseConfig(int cluster_size, std::uint64_t seed) {
  ControlHarnessConfig config;
  config.cluster_size = cluster_size;
  config.tick_interval = 5;
  config.net_latency = 1;
  config.reemit_interval = 60;
  config.action_duration = {2, 5, 10, 20};
  config.coordinator.lease.lease_duration = 30;
  config.coordinator.membership.suspect_after = 15;
  config.coordinator.membership.evict_after = 60;
  config.coordinator.election_retry = 10;
  config.net.seed = seed;
  return config;
}

std::vector<ControlIncident> Incidents() {
  return {{50, 7, "NoHeartbeat", 3}, {150, 2, "Watchdog", 1},
          {400, 9, "Watchdog", 0}};
}

struct TracedRun {
  ControlHarnessResult result;
  std::vector<obs::TraceRecord> records;
};

TracedRun RunTraced(ControlHarnessConfig config, NetFaultScript script) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig manager_config;
  manager_config.action_timeout = 120;
  obs::TraceCollector traces;
  ControlPlaneHarness harness(policy, manager_config, std::move(config),
                              std::move(script));
  harness.SetObservers(&traces, nullptr);
  TracedRun run;
  run.result = harness.Run(Incidents());
  run.records = traces.Snapshot();
  return run;
}

// Structural well-formedness of every process DAG: exactly one root, every
// other node's parent is an earlier node, and orphan flags appear only on
// loss events.
void ExpectWellFormed(const obs::TraceDag& dag) {
  for (const obs::TraceProcess& process : dag.processes) {
    ASSERT_FALSE(process.nodes.empty());
    EXPECT_EQ(process.nodes[0].parent, -1);
    EXPECT_EQ(process.nodes[0].record.kind, obs::TraceEventKind::kIncident);
    for (std::size_t i = 1; i < process.nodes.size(); ++i) {
      EXPECT_GE(process.nodes[i].parent, 0);
      EXPECT_LT(process.nodes[i].parent, static_cast<int>(i));
    }
    for (const obs::TraceDagNode& node : process.nodes) {
      const bool loss =
          node.record.kind == obs::TraceEventKind::kDispatchDrop ||
          node.record.kind == obs::TraceEventKind::kResultLost ||
          node.record.kind == obs::TraceEventKind::kMessageDrop;
      EXPECT_EQ(node.orphan, loss);
    }
  }
}

// The tentpole's exactness claim: for every cured path, the per-stage
// durations sum to exactly the end-to-end sim-time latency.
void ExpectExactSums(const std::vector<obs::TraceRecord>& records,
                     int expected_cured) {
  const auto paths = obs::AnalyzeCriticalPaths(records);
  int cured = 0;
  for (const obs::CriticalPath& path : paths) {
    if (!path.cured) continue;
    ++cured;
    EXPECT_EQ(path.total_seconds(), path.end - path.start)
        << "trace " << path.trace_id;
  }
  EXPECT_EQ(cured, expected_cured);
}

TEST(TracePropagationTest, FaultFreeTraceIsIdenticalAcrossClusterSizes) {
  const TracedRun one = RunTraced(BaseConfig(1, 1), NetFaultScript{});
  const TracedRun three = RunTraced(BaseConfig(3, 1), NetFaultScript{});
  const TracedRun five = RunTraced(BaseConfig(5, 1), NetFaultScript{});
  ASSERT_TRUE(one.result.all_completed);
  ASSERT_TRUE(three.result.all_completed);
  ASSERT_TRUE(five.result.all_completed);
  // The full record streams match — ids, times, hops, seq — so every
  // derived rendering is byte-identical too.
  EXPECT_EQ(one.records, three.records);
  EXPECT_EQ(one.records, five.records);
  const std::string dag_text =
      obs::FormatTraceDag(obs::BuildTraceDag(one.records));
  EXPECT_EQ(dag_text, obs::FormatTraceDag(obs::BuildTraceDag(five.records)));
  ExpectWellFormed(obs::BuildTraceDag(one.records));
  ExpectExactSums(one.records, 3);
}

TEST(TracePropagationTest, AttachingTheCollectorDoesNotPerturbTheRun) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig manager_config;
  manager_config.action_timeout = 120;
  ControlPlaneHarness plain(policy, manager_config, BaseConfig(3, 1),
                            NetFaultScript{});
  const ControlHarnessResult untraced = plain.Run(Incidents());
  const TracedRun traced = RunTraced(BaseConfig(3, 1), NetFaultScript{});
  // Telemetry never feeds back: identical executed actions, cure times,
  // dispatch log, and event count with and without the collector.
  EXPECT_EQ(untraced.executed, traced.result.executed);
  EXPECT_EQ(untraced.cure_times, traced.result.cure_times);
  EXPECT_EQ(untraced.dispatch_log, traced.result.dispatch_log);
  EXPECT_EQ(untraced.events_processed, traced.result.events_processed);
}

TEST(TracePropagationTest, DuplicatedHopsAnnotateButNeverDoubleCount) {
  ControlHarnessConfig config = BaseConfig(3, 7);
  config.net.duplicate_machine_hop = 0.5;
  const TracedRun run = RunTraced(std::move(config), NetFaultScript{});
  ASSERT_TRUE(run.result.all_completed);
  ASSERT_GT(run.result.net.machine_duplicates, 0);
  // Duplicate-flagged hops are present in the stream...
  int duplicates = 0;
  for (const obs::TraceRecord& r : run.records) {
    if (r.duplicate) ++duplicates;
  }
  EXPECT_GT(duplicates, 0);
  // ...but the attribution ignores them: sums stay exact for all 3 cures
  // and the DAG stays well-formed.
  ExpectExactSums(run.records, 3);
  ExpectWellFormed(obs::BuildTraceDag(run.records));
}

TEST(TracePropagationTest, DroppedMessagesLeaveOrphanEdges) {
  ControlHarnessConfig config = BaseConfig(3, 11);
  config.net.drop_machine_hop = 0.4;
  const TracedRun run = RunTraced(std::move(config), NetFaultScript{});
  // The timeout/re-emit chain still cures everything.
  ASSERT_TRUE(run.result.all_completed);
  ASSERT_GT(run.result.net.machine_drops, 0);
  const obs::TraceDag dag = obs::BuildTraceDag(run.records);
  int orphans = 0;
  for (const obs::TraceProcess& process : dag.processes) {
    for (const obs::TraceDagNode& node : process.nodes) {
      if (node.orphan) ++orphans;
    }
  }
  EXPECT_GT(orphans, 0);
  ExpectWellFormed(dag);
  ExpectExactSums(run.records, 3);
}

TEST(TracePropagationTest, TraceIdSurvivesLeaderTakeover) {
  // Crash the initial leader while machine 7's recovery is in flight: the
  // successor adopts the replica and finishes the cure under the SAME
  // trace id, with the adoption visible in the DAG.
  NetFaultScript script;
  script.crashes.push_back({72, 0, 300});
  const TracedRun run = RunTraced(BaseConfig(3, 1), script);
  ASSERT_TRUE(run.result.all_completed);
  const obs::TraceDag dag = obs::BuildTraceDag(run.records);
  bool found_takeover_trace = false;
  for (const obs::TraceProcess& process : dag.processes) {
    if (process.machine != 7) continue;
    if (!process.cured) continue;
    std::set<int> dispatch_nodes;
    bool adopted = false;
    for (const obs::TraceDagNode& node : process.nodes) {
      if (node.record.kind == obs::TraceEventKind::kDispatch) {
        dispatch_nodes.insert(node.record.node);
      }
      if (node.record.kind == obs::TraceEventKind::kAdopt) adopted = true;
    }
    // One stitched DAG spanning both coordinators' dispatches.
    if (adopted && dispatch_nodes.size() >= 2) found_takeover_trace = true;
  }
  EXPECT_TRUE(found_takeover_trace);
  // The takeover window is attributed: some cured path carries a non-zero
  // takeover_gap or election_wait stage.
  const auto paths = obs::AnalyzeCriticalPaths(run.records);
  SimTime control_wait = 0;
  for (const obs::CriticalPath& path : paths) {
    control_wait +=
        path.stage_seconds[static_cast<int>(obs::TraceStage::kTakeoverGap)] +
        path.stage_seconds[static_cast<int>(obs::TraceStage::kElectionWait)];
  }
  EXPECT_GT(control_wait, 0);
  ExpectExactSums(run.records, 3);
}

// The acceptance sweep: 50 seeds of combined coordinator-link and
// machine-hop chaos plus a leader crash. Every run must cure everything,
// keep the auditor clean, produce well-formed DAGs, and attribute every
// cured trace's latency exactly.
TEST(TracePropagationTest, FiftySeedChaosSweepKeepsSumsExact) {
  int traced_processes = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ControlHarnessConfig config = BaseConfig(3, seed);
    config.net.drop_message = 0.05;
    config.net.delay_message = 0.10;
    config.net.duplicate_message = 0.05;
    config.net.drop_machine_hop = 0.10;
    config.net.delay_machine_hop = 0.10;
    config.net.duplicate_machine_hop = 0.10;
    NetFaultScript script;
    script.crashes.push_back({72, 0, 300});
    const TracedRun run = RunTraced(std::move(config), script);
    ASSERT_TRUE(run.result.all_completed) << "seed " << seed;
    ASSERT_TRUE(run.result.audit.Clean()) << "seed " << seed;
    ExpectExactSums(run.records, 3);
    const obs::TraceDag dag = obs::BuildTraceDag(run.records);
    ExpectWellFormed(dag);
    traced_processes += static_cast<int>(dag.processes.size());
  }
  // Every incident of every seed produced a traced process.
  EXPECT_GE(traced_processes, 50 * 3);
}

}  // namespace
}  // namespace aer::ctrl
