// Acceptance tests for the degraded-operation ladder on a one-coordinator
// control plane: every run at the default severities must terminate with
// every machine cured, whatever combination of lost, late and duplicated
// monitoring reports, lost dispatches (hung actions), lost results, and
// lying success reports the machine network injects (docs/ROBUSTNESS.md).
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "core/guarded_policy.h"
#include "ctrl/harness.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_dag.h"

namespace aer::ctrl {
namespace {

// With `distinct_machines` every incident hits its own machine (one sick
// episode each); otherwise incidents pile onto 7 machines, so overlapping
// incidents merge into fewer-but-harder episodes — good stress, but the
// cure count then undershoots the incident count by design.
std::vector<ControlIncident> MakeIncidents(int count,
                                           bool distinct_machines = false) {
  std::vector<ControlIncident> incidents;
  const char* symptoms[] = {"Watchdog", "DiskError", "EventLog", "NicDown"};
  for (int i = 0; i < count; ++i) {
    incidents.push_back({.time = 100 + i * 700,
                         .machine = distinct_machines ? i : i % 7,
                         .symptom = symptoms[i % 4],
                         .cure_strength = i % kNumActions});
  }
  return incidents;
}

RecoveryManagerConfig HardenedConfig() {
  RecoveryManagerConfig config;
  // Longer than the slowest honest action (8h RMA), so only lost dispatches
  // and results ever hit the deadline.
  config.action_timeout = 10 * kHour;
  config.flap_threshold = 6;
  config.flap_window = 12 * kHour;
  return config;
}

ControlHarnessConfig AllArms(std::uint64_t seed) {
  ControlHarnessConfig config = OneCoordinatorConfig();
  config.net.seed = seed;
  config.net.drop_machine_hop = 0.2;
  config.net.duplicate_machine_hop = 0.2;
  config.net.delay_machine_hop = 0.2;
  config.net.false_success = 0.2;
  return config;
}

// One harness run plus the state the assertions read after it.
struct HarnessRun {
  ControlHarnessResult result;
  RecoveryManager::Stats manager;
  std::size_t open_processes = 0;
};

HarnessRun RunHarness(RecoveryPolicy& policy,
                      const ControlHarnessConfig& config,
                      const std::vector<ControlIncident>& incidents,
                      obs::TraceCollector* traces = nullptr,
                      obs::MetricsRegistry* metrics = nullptr) {
  ControlPlaneHarness harness(policy, HardenedConfig(), config,
                              NetFaultScript{});
  harness.SetObservers(traces, metrics);
  HarnessRun run;
  run.result = harness.Run(incidents);
  const RecoveryManager& manager = harness.coordinator(0)->service().manager();
  run.manager = manager.stats();
  run.open_processes = manager.open_process_count();
  return run;
}

TEST(FaultInjectionTest, CleanRunCompletesEverything) {
  UserDefinedPolicy policy;
  const HarnessRun run =
      RunHarness(policy, OneCoordinatorConfig(),
                 MakeIncidents(20, /*distinct_machines=*/true));
  EXPECT_TRUE(run.result.all_completed);
  EXPECT_EQ(run.result.cures, 20);
  EXPECT_EQ(run.result.net.machine_drops, 0);
  EXPECT_EQ(run.manager.actions_timed_out, 0);
}

TEST(FaultInjectionTest, SurvivesEventLoss) {
  UserDefinedPolicy policy;
  ControlHarnessConfig config = OneCoordinatorConfig();
  config.net.drop_machine_hop = 0.5;
  const HarnessRun run = RunHarness(policy, config, MakeIncidents(20));
  EXPECT_TRUE(run.result.all_completed);
  EXPECT_GT(run.result.net.machine_drops, 0);
}

TEST(FaultInjectionTest, SurvivesDuplicationAndDelay) {
  UserDefinedPolicy policy;
  ControlHarnessConfig config = OneCoordinatorConfig();
  config.net.duplicate_machine_hop = 0.5;
  config.net.delay_machine_hop = 0.5;
  config.net.max_delay = 600;
  const HarnessRun run = RunHarness(policy, config, MakeIncidents(20));
  EXPECT_TRUE(run.result.all_completed);
  EXPECT_GT(run.result.net.machine_duplicates, 0);
  EXPECT_GT(run.result.net.machine_delays, 0);
  // The manager absorbed at least some of the duplicates.
  EXPECT_GT(run.manager.duplicate_symptoms + run.manager.out_of_order_events,
            0);
}

// A dropped dispatch is a hung action: the machine never runs it and the
// issuer hears nothing. With re-emits rarer than the action timeout, every
// attempt whose dispatch was lost before it ever ran is recovered later in
// its trace, either re-dispatched by a re-emit or timed out and followed by
// the next attempt, and some recover through the timeout.
TEST(FaultInjectionTest, SurvivesLostDispatches) {
  UserDefinedPolicy policy;
  ControlHarnessConfig config = OneCoordinatorConfig();
  config.reemit_interval = 12 * kHour;
  config.net.drop_machine_hop = 0.4;
  obs::TraceCollector traces;
  const HarnessRun run =
      RunHarness(policy, config, MakeIncidents(20), &traces);
  EXPECT_TRUE(run.result.all_completed);
  std::set<std::pair<obs::TraceId, int>> started;
  std::set<std::pair<obs::TraceId, int>> lost;
  std::int64_t recovered_by_timeout = 0;
  for (const obs::TraceRecord& r : traces.Snapshot()) {
    const std::pair<obs::TraceId, int> attempt{r.trace_id, r.attempt};
    switch (r.kind) {
      case obs::TraceEventKind::kDispatchDrop:
        if (!started.contains(attempt)) lost.insert(attempt);
        break;
      case obs::TraceEventKind::kDispatch:
        lost.erase(attempt);
        break;
      case obs::TraceEventKind::kActionStart:
        started.insert(attempt);
        break;
      case obs::TraceEventKind::kTimeout:
        recovered_by_timeout += static_cast<std::int64_t>(lost.erase(attempt));
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(lost.empty());
  EXPECT_GT(recovered_by_timeout, 0);
  EXPECT_GE(run.manager.actions_timed_out, recovered_by_timeout);
}

TEST(FaultInjectionTest, SurvivesFalseSuccessReports) {
  UserDefinedPolicy policy;
  ControlHarnessConfig config = OneCoordinatorConfig();
  config.net.false_success = 0.5;
  const HarnessRun run = RunHarness(policy, config, MakeIncidents(20));
  EXPECT_TRUE(run.result.all_completed);
  EXPECT_GT(run.result.net.false_successes, 0);
}

TEST(FaultInjectionTest, SurvivesEverythingAtOnce) {
  // The acceptance scenario: all injection arms on simultaneously at the
  // documented default severities (docs/ROBUSTNESS.md).
  UserDefinedPolicy policy;
  const HarnessRun run =
      RunHarness(policy, AllArms(20070625), MakeIncidents(40));
  EXPECT_TRUE(run.result.all_completed);
  EXPECT_EQ(run.open_processes, 0u);
  EXPECT_TRUE(run.result.audit.Clean());
  // Lost dispatches were recovered through the timeout path.
  EXPECT_GT(run.result.net.machine_drops, 0);
  EXPECT_GT(run.manager.actions_timed_out, 0);
}

TEST(FaultInjectionTest, DeterministicAcrossRuns) {
  UserDefinedPolicy policy_a;
  const HarnessRun a =
      RunHarness(policy_a, AllArms(20070625), MakeIncidents(25));
  UserDefinedPolicy policy_b;
  const HarnessRun b =
      RunHarness(policy_b, AllArms(20070625), MakeIncidents(25));

  EXPECT_EQ(a.result.end_time, b.result.end_time);
  EXPECT_EQ(a.result.events_processed, b.result.events_processed);
  EXPECT_EQ(a.result.executed, b.result.executed);
  EXPECT_EQ(a.result.cure_times, b.result.cure_times);
  EXPECT_EQ(a.result.dispatch_log, b.result.dispatch_log);
  EXPECT_EQ(a.result.net.machine_drops, b.result.net.machine_drops);
  EXPECT_EQ(a.result.net.false_successes, b.result.net.false_successes);
  EXPECT_TRUE(a.manager == b.manager);
}

TEST(FaultInjectionTest, PerArmInjectionCountsMirrorIntoMetrics) {
  UserDefinedPolicy policy;
  obs::MetricsRegistry metrics;
  const HarnessRun run = RunHarness(policy, AllArms(20070625),
                                    MakeIncidents(40), nullptr, &metrics);

  EXPECT_TRUE(run.result.all_completed);
  const NetPerturber::Stats& net = run.result.net;
  const auto counter = [&metrics](const char* name) {
    return metrics.GetCounter(name).value();
  };
  EXPECT_EQ(counter("aer_inject_events_dropped_total"), net.machine_drops);
  EXPECT_EQ(counter("aer_inject_events_duplicated_total"),
            net.machine_duplicates);
  EXPECT_EQ(counter("aer_inject_events_delayed_total"), net.machine_delays);
  EXPECT_EQ(counter("aer_inject_false_successes_total"),
            net.false_successes);
  EXPECT_GT(net.machine_drops, 0);
  EXPECT_GT(net.machine_duplicates, 0);
  EXPECT_GT(net.machine_delays, 0);
  EXPECT_GT(net.false_successes, 0);
}

TEST(FaultInjectionTest, EventBudgetTurnsLivelockIntoAFailureReport) {
  UserDefinedPolicy policy;
  ControlHarnessConfig config = OneCoordinatorConfig();
  config.max_events = 50;  // far too small for 20 incidents
  const HarnessRun run = RunHarness(policy, config, MakeIncidents(20));
  EXPECT_FALSE(run.result.all_completed);
  EXPECT_EQ(run.result.events_processed, config.max_events + 1);
}

// Every cured path's stage durations sum exactly to its end-to-end latency.
void ExpectExactSums(const std::vector<obs::TraceRecord>& records) {
  for (const obs::CriticalPath& path : obs::AnalyzeCriticalPaths(records)) {
    if (!path.cured) continue;
    EXPECT_EQ(path.total_seconds(), path.end - path.start)
        << "trace " << path.trace_id;
  }
}

// The acceptance sweep: every arm at 0.2 over 50 seeds. Every run cures
// everything with a clean audit, records every cure, and attributes every
// cured trace's latency exactly.
TEST(FaultInjectionTest, FiftySeedSweepCompletesWithExactAttribution) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    UserDefinedPolicy policy;
    obs::TraceCollector traces;
    const HarnessRun run =
        RunHarness(policy, AllArms(seed), MakeIncidents(40), &traces);
    ASSERT_TRUE(run.result.all_completed) << "seed " << seed;
    EXPECT_TRUE(run.result.audit.Clean()) << "seed " << seed;
    const std::vector<obs::TraceRecord> records = traces.Snapshot();
    const auto cure_records = std::count_if(
        records.begin(), records.end(), [](const obs::TraceRecord& r) {
          return r.kind == obs::TraceEventKind::kCure;
        });
    EXPECT_EQ(cure_records, run.result.cures) << "seed " << seed;
    ExpectExactSums(records);
  }
}

// Minting trace ids is a pure hash and recording only appends: the run, the
// manager's stats and the deterministic metrics are identical with a
// collector attached (to the harness and the guarded policy) and without.
TEST(InjectTraceTest, CollectorIsPassive) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    HarnessRun runs[2];
    std::string metrics_text[2];
    for (int traced = 0; traced < 2; ++traced) {
      UserDefinedPolicy primary;
      UserDefinedPolicy fallback;
      GuardedPolicy guard(primary, fallback);
      obs::TraceCollector traces;
      obs::MetricsRegistry metrics;
      obs::TraceCollector* sink = traced ? &traces : nullptr;
      guard.SetObservers(sink, &metrics);
      runs[traced] =
          RunHarness(guard, AllArms(seed), MakeIncidents(30), sink, &metrics);
      obs::MetricsRegistry::ExportOptions options;
      options.include_volatile = false;
      metrics_text[traced] = metrics.ExportText(options);
      EXPECT_EQ(traces.recorded_count() > 0, traced == 1) << "seed " << seed;
    }
    const ControlHarnessResult& a = runs[0].result;
    const ControlHarnessResult& b = runs[1].result;
    EXPECT_EQ(a.executed, b.executed) << "seed " << seed;
    EXPECT_EQ(a.cure_times, b.cure_times) << "seed " << seed;
    EXPECT_EQ(a.dispatch_log, b.dispatch_log) << "seed " << seed;
    EXPECT_EQ(a.events_processed, b.events_processed) << "seed " << seed;
    EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;
    EXPECT_TRUE(runs[0].manager == runs[1].manager) << "seed " << seed;
    EXPECT_EQ(metrics_text[0], metrics_text[1]) << "seed " << seed;
  }
}

// The records form one causal DAG per recovery episode, and every injected
// fault is visible in it: a lost report is a message_drop orphan, a late one
// a symptom with detail "delayed", a duplicated one a symptom flagged
// duplicate; a lost dispatch is a dispatch_drop orphan and a lost result a
// result_lost orphan; a false success is an action_done with detail
// "false_success".
TEST(InjectTraceTest, RecordsChainAttemptsAndShowEveryFault) {
  const std::vector<ControlIncident> incidents = MakeIncidents(40);
  std::map<std::pair<SimTime, MachineId>, std::string> symptom_of;
  for (const ControlIncident& incident : incidents) {
    symptom_of[{incident.time, incident.machine}] = incident.symptom;
  }
  UserDefinedPolicy policy;
  obs::TraceCollector traces;
  const HarnessRun run = RunHarness(policy, AllArms(7), incidents, &traces);
  ASSERT_TRUE(run.result.all_completed);
  const NetPerturber::Stats& net = run.result.net;
  ASSERT_GT(net.false_successes, 0);

  const std::vector<obs::TraceRecord> records = traces.Snapshot();
  const obs::TraceDag dag = obs::BuildTraceDag(records);
  std::map<std::int64_t, std::uint64_t> episodes;
  std::int64_t cures = 0, report_drops = 0, dispatch_drops = 0,
               result_drops = 0, duplicates = 0, delays = 0,
               false_successes = 0;
  for (const obs::TraceProcess& process : dag.processes) {
    const obs::TraceRecord& root = process.nodes[0].record;
    ASSERT_EQ(root.kind, obs::TraceEventKind::kIncident);
    EXPECT_FALSE(process.truncated);
    // Ids are minted per machine, one per recovery episode, in episode
    // order.
    EXPECT_EQ(process.trace_id,
              obs::MakeTraceId(7, root.machine, ++episodes[root.machine]));
    EXPECT_EQ(root.detail, (symptom_of[{root.time, root.machine}]));
    for (const obs::TraceDagNode& node : process.nodes) {
      const obs::TraceRecord& r = node.record;
      const auto parent = [&]() -> const obs::TraceRecord& {
        return process.nodes[static_cast<std::size_t>(node.parent)].record;
      };
      switch (r.kind) {
        case obs::TraceEventKind::kActionStart:
          EXPECT_EQ(parent().kind, obs::TraceEventKind::kDispatch);
          EXPECT_EQ(parent().attempt, r.attempt);
          EXPECT_EQ(parent().action, r.action);
          break;
        case obs::TraceEventKind::kActionDone:
          EXPECT_EQ(parent().kind, obs::TraceEventKind::kActionStart);
          EXPECT_EQ(parent().attempt, r.attempt);
          if (r.detail == "false_success") ++false_successes;
          break;
        case obs::TraceEventKind::kCure:
          // The curing action's completion instant, where the process ends.
          ++cures;
          EXPECT_EQ(parent().kind, obs::TraceEventKind::kActionDone);
          EXPECT_EQ(parent().detail, "cured");
          EXPECT_EQ(parent().time, r.time);
          EXPECT_TRUE(process.cured);
          EXPECT_EQ(process.end, r.time);
          break;
        case obs::TraceEventKind::kMessageDrop:
          EXPECT_TRUE(node.orphan);
          EXPECT_EQ(r.detail, "dropped");
          ++report_drops;
          break;
        case obs::TraceEventKind::kDispatchDrop:
          EXPECT_TRUE(node.orphan);
          ++dispatch_drops;
          break;
        case obs::TraceEventKind::kResultLost:
          EXPECT_TRUE(node.orphan);
          EXPECT_EQ(r.detail, "dropped");
          ++result_drops;
          break;
        case obs::TraceEventKind::kSymptom:
          if (r.duplicate) ++duplicates;
          if (r.detail == "delayed" && !r.duplicate) ++delays;
          break;
        default:
          break;
      }
    }
  }
  EXPECT_EQ(cures, run.result.cures);
  EXPECT_GT(report_drops, 0);
  EXPECT_GT(dispatch_drops, 0);
  EXPECT_EQ(report_drops + dispatch_drops + result_drops, net.machine_drops);
  EXPECT_GT(duplicates, 0);
  EXPECT_GT(delays, 0);
  EXPECT_EQ(false_successes, net.false_successes);
  ExpectExactSums(records);
}

}  // namespace
}  // namespace aer::ctrl
