// Acceptance tests for the degraded-operation ladder: every harness run at
// the default severities must terminate with every machine cured, whatever
// combination of event loss, duplication, delay, hung actions, and lying
// success reports is injected.
#include "inject/harness.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/user_policy.h"
#include "core/guarded_policy.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_dag.h"

namespace aer {
namespace {

// With `distinct_machines` every incident hits its own machine (one sick
// episode each); otherwise incidents pile onto 7 machines, so overlapping
// incidents merge into fewer-but-harder episodes — good stress, but the
// cure count then undershoots the incident count by design.
std::vector<HarnessIncident> MakeIncidents(int count,
                                           bool distinct_machines = false) {
  std::vector<HarnessIncident> incidents;
  const char* symptoms[] = {"Watchdog", "DiskError", "EventLog", "NicDown"};
  for (int i = 0; i < count; ++i) {
    HarnessIncident incident;
    incident.time = 100 + i * 700;
    incident.machine = distinct_machines ? i : i % 7;
    incident.symptom = symptoms[i % 4];
    incident.cure_strength = i % kNumActions;
    incidents.push_back(incident);
  }
  return incidents;
}

RecoveryManagerConfig HardenedConfig() {
  RecoveryManagerConfig config;
  // Longer than the slowest honest action (8h RMA), so only injected hangs
  // ever hit the deadline.
  config.action_timeout = 10 * kHour;
  config.flap_threshold = 6;
  config.flap_window = 12 * kHour;
  return config;
}

TEST(InjectionHarnessTest, CleanRunCompletesEverything) {
  UserDefinedPolicy policy;
  InjectionHarness harness(policy, HardenedConfig(), HarnessConfig{});
  const HarnessResult result =
      harness.Run(MakeIncidents(20, /*distinct_machines=*/true));
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.cures, 20);
  EXPECT_EQ(result.hangs_injected, 0);
  EXPECT_EQ(result.manager.actions_timed_out, 0);
}

TEST(InjectionHarnessTest, SurvivesEventLoss) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.drop_event = 0.5;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.events_dropped, 0);
}

TEST(InjectionHarnessTest, SurvivesDuplicationAndDelay) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.duplicate_event = 0.5;
  config.delay_event = 0.5;
  config.max_delay = 600;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.events_duplicated, 0);
  EXPECT_GT(result.events_delayed, 0);
  // The manager absorbed at least some of the duplicates.
  EXPECT_GT(result.manager.duplicate_symptoms +
                result.manager.out_of_order_events,
            0);
}

TEST(InjectionHarnessTest, SurvivesHangingActions) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.hang_action = 0.4;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.hangs_injected, 0);
  EXPECT_EQ(result.manager.actions_timed_out, result.hangs_injected);
}

TEST(InjectionHarnessTest, SurvivesFalseSuccessReports) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.false_success = 0.5;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.false_successes_injected, 0);
}

TEST(InjectionHarnessTest, SurvivesEverythingAtOnce) {
  // The acceptance scenario: all injection arms on simultaneously at the
  // documented default severities (docs/ROBUSTNESS.md).
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.drop_event = 0.2;
  config.duplicate_event = 0.2;
  config.delay_event = 0.2;
  config.hang_action = 0.2;
  config.false_success = 0.2;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(40));
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(harness.manager().open_process_count(), 0u);
  // Every injected hang was recovered through the timeout path.
  EXPECT_GE(result.manager.actions_timed_out, result.hangs_injected);
}

TEST(InjectionHarnessTest, DeterministicAcrossRuns) {
  HarnessConfig config;
  config.drop_event = 0.2;
  config.duplicate_event = 0.2;
  config.delay_event = 0.2;
  config.hang_action = 0.2;
  config.false_success = 0.2;

  UserDefinedPolicy policy_a;
  InjectionHarness harness_a(policy_a, HardenedConfig(), config);
  const HarnessResult a = harness_a.Run(MakeIncidents(25));

  UserDefinedPolicy policy_b;
  InjectionHarness harness_b(policy_b, HardenedConfig(), config);
  const HarnessResult b = harness_b.Run(MakeIncidents(25));

  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.hangs_injected, b.hangs_injected);
  EXPECT_EQ(a.manager.actions_taken, b.manager.actions_taken);
  EXPECT_EQ(a.manager.total_downtime, b.manager.total_downtime);
}

TEST(InjectionHarnessTest, ReorderDepthTracksDelayedDeliveries) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.delay_event = 1.0;  // every emission slips
  config.max_delay = 600;
  InjectionHarness harness(policy, HardenedConfig(), config);
  obs::MetricsRegistry metrics;
  harness.SetObservers(nullptr, &metrics);
  const HarnessResult result = harness.Run(MakeIncidents(20));

  EXPECT_TRUE(result.all_completed);
  ASSERT_GT(result.events_delayed, 0);
  // Delayed deliveries overtake other traffic: the depth accounting must
  // see at least one reordering, the max bounds every sample, and the
  // stat metric mirrors the same samples one-to-one.
  EXPECT_GT(result.reorder_depth_max, 0);
  EXPECT_GE(result.reorder_depth_sum, result.reorder_depth_max);
  const RunningStat stat =
      metrics.GetStat("aer_inject_reorder_depth").Snapshot();
  EXPECT_EQ(stat.count(), result.events_delayed);
  EXPECT_EQ(static_cast<std::int64_t>(stat.max()),
            result.reorder_depth_max);
  EXPECT_EQ(static_cast<std::int64_t>(stat.sum()),
            result.reorder_depth_sum);
}

TEST(InjectionHarnessTest, PerArmInjectionCountsMirrorIntoMetrics) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.drop_event = 0.2;
  config.duplicate_event = 0.2;
  config.delay_event = 0.2;
  config.hang_action = 0.2;
  config.false_success = 0.2;
  InjectionHarness harness(policy, HardenedConfig(), config);
  obs::MetricsRegistry metrics;
  harness.SetObservers(nullptr, &metrics);
  const HarnessResult result = harness.Run(MakeIncidents(40));

  EXPECT_TRUE(result.all_completed);
  const auto counter = [&metrics](const char* name) {
    return metrics.GetCounter(name).value();
  };
  EXPECT_EQ(counter("aer_inject_incidents_total"), result.incidents);
  EXPECT_EQ(counter("aer_inject_cures_total"), result.cures);
  EXPECT_EQ(counter("aer_inject_events_dropped_total"),
            result.events_dropped);
  EXPECT_EQ(counter("aer_inject_events_duplicated_total"),
            result.events_duplicated);
  EXPECT_EQ(counter("aer_inject_events_delayed_total"),
            result.events_delayed);
  EXPECT_EQ(counter("aer_inject_hangs_total"), result.hangs_injected);
  EXPECT_EQ(counter("aer_inject_false_successes_total"),
            result.false_successes_injected);
}

HarnessConfig AllArms(std::uint64_t seed) {
  HarnessConfig config;
  config.seed = seed;
  config.drop_event = 0.2;
  config.duplicate_event = 0.2;
  config.delay_event = 0.2;
  config.hang_action = 0.2;
  config.false_success = 0.2;
  return config;
}

// Minting trace ids is a pure hash and recording only appends: the run, the
// manager's stats and the deterministic metrics are identical with a
// collector attached (to the harness and the guarded policy) and without.
TEST(InjectTraceTest, CollectorIsPassive) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    HarnessResult results[2];
    RecoveryManager::Stats stats[2];
    std::string metrics_text[2];
    for (int traced = 0; traced < 2; ++traced) {
      UserDefinedPolicy primary;
      UserDefinedPolicy fallback;
      GuardedPolicy guard(primary, fallback);
      obs::TraceCollector traces;
      obs::MetricsRegistry metrics;
      obs::TraceCollector* sink = traced ? &traces : nullptr;
      guard.SetObservers(sink, &metrics);
      InjectionHarness harness(guard, HardenedConfig(), AllArms(seed));
      harness.SetObservers(sink, &metrics);
      results[traced] = harness.Run(MakeIncidents(30));
      stats[traced] = harness.manager().stats();
      obs::MetricsRegistry::ExportOptions options;
      options.include_volatile = false;
      metrics_text[traced] = metrics.ExportText(options);
      EXPECT_EQ(traces.recorded_count() > 0, traced == 1) << "seed " << seed;
    }
    EXPECT_TRUE(results[0] == results[1]) << "seed " << seed;
    EXPECT_TRUE(stats[0] == stats[1]) << "seed " << seed;
    EXPECT_EQ(metrics_text[0], metrics_text[1]) << "seed " << seed;
  }
}

// The records form one causal DAG per recovery episode in the control
// plane's vocabulary, and every injected fault is visible in it.
TEST(InjectTraceTest, RecordsChainAttemptsAndShowEveryFault) {
  const std::vector<HarnessIncident> incidents = MakeIncidents(40);
  std::map<std::pair<SimTime, MachineId>, std::string> symptom_of;
  for (const HarnessIncident& incident : incidents) {
    symptom_of[{incident.time, incident.machine}] = incident.symptom;
  }
  UserDefinedPolicy policy;
  InjectionHarness harness(policy, HardenedConfig(), AllArms(7));
  obs::TraceCollector traces;
  harness.SetObservers(&traces, nullptr);
  const HarnessResult result = harness.Run(incidents);
  ASSERT_TRUE(result.all_completed);
  ASSERT_GT(result.hangs_injected, 0);
  ASSERT_GT(result.false_successes_injected, 0);

  const obs::TraceDag dag = obs::BuildTraceDag(traces.Snapshot());
  EXPECT_TRUE(dag.global_events.empty());
  std::map<std::int64_t, std::uint64_t> episodes;
  std::int64_t cures = 0, drops = 0, duplicates = 0, delays = 0, hangs = 0,
               false_successes = 0;
  for (const obs::TraceProcess& process : dag.processes) {
    const obs::TraceRecord& root = process.nodes[0].record;
    ASSERT_EQ(root.kind, obs::TraceEventKind::kIncident);
    EXPECT_FALSE(process.truncated);
    // Ids are minted as the control plane mints them: per machine, one per
    // recovery episode, in episode order.
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
          // The harness's cure: the curing action's completion instant,
          // which is where the process ends.
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
          ++drops;
          break;
        case obs::TraceEventKind::kResultLost:
          EXPECT_TRUE(node.orphan);
          EXPECT_EQ(r.detail, "hang");
          ++hangs;
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
  EXPECT_EQ(cures, result.cures);
  EXPECT_EQ(drops, result.events_dropped);
  EXPECT_EQ(duplicates, result.events_duplicated);
  EXPECT_EQ(delays, result.events_delayed);
  EXPECT_EQ(hangs, result.hangs_injected);
  EXPECT_EQ(false_successes, result.false_successes_injected);
}

TEST(InjectionHarnessTest, EventBudgetTurnsLivelockIntoAFailureReport) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.max_events = 50;  // far too small for 20 incidents
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_FALSE(result.all_completed);
  EXPECT_EQ(result.events_processed, 51u);
}

}  // namespace
}  // namespace aer
