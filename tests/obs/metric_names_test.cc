// Frozen metric-name contract (docs/OBSERVABILITY.md). Every aer_* metric a
// component can register is enumerated here; adding, renaming, or removing
// one must update both this list and the catalog in the doc. Like the
// DeriveStream contract, names are API: dashboards, baselines, and
// run_all.py --compare key on them.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "core/guarded_policy.h"
#include "core/recovery_manager.h"
#include "ctrl/harness.h"
#include "fleet/fleet_sim.h"
#include "fleet/trace.h"
#include "inject/harness.h"
#include "inject/net_perturber.h"
#include "mining/error_type.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace_collector.h"
#include "rl/telemetry.h"
#include "sim/platform.h"

namespace aer {
namespace {

std::vector<std::string> Sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

TEST(MetricNamesTest, RecoveryManagerRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.SetObservers(nullptr, &registry);
  const std::vector<std::string> expected = {
      "aer_recovery_actions_per_process",
      "aer_recovery_actions_total",
      "aer_recovery_downtime_seconds",
      "aer_recovery_duplicate_requests_total",
      "aer_recovery_duplicate_symptoms_total",
      "aer_recovery_flap_quarantines_total",
      "aer_recovery_history_evictions_total",
      "aer_recovery_manual_forced_total",
      "aer_recovery_out_of_order_total",
      "aer_recovery_processes_adopted_total",
      "aer_recovery_processes_total",
      "aer_recovery_stale_results_total",
      "aer_recovery_timeouts_total",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, GuardedPolicyRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  UserDefinedPolicy primary;
  UserDefinedPolicy fallback;
  GuardedPolicy guard(primary, fallback);
  guard.SetObservers(nullptr, &registry);
  const std::vector<std::string> expected = {
      "aer_guard_breaker_open",
      "aer_guard_breaker_trips_total",
      "aer_guard_fallback_decisions_total",
      "aer_guard_faults_absorbed_total",
      "aer_guard_invalid_actions_total",
      "aer_guard_primary_decisions_total",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, InjectionHarnessRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  UserDefinedPolicy policy;
  InjectionHarness harness(policy, RecoveryManagerConfig{}, HarnessConfig{});
  harness.SetObservers(nullptr, &registry);
  // The harness forwards to its internal RecoveryManager, so its set is the
  // aer_inject_* names plus the manager's.
  const std::vector<std::string> expected_inject = {
      "aer_inject_cures_total",
      "aer_inject_events_delayed_total",
      "aer_inject_events_dropped_total",
      "aer_inject_events_duplicated_total",
      "aer_inject_false_successes_total",
      "aer_inject_hangs_total",
      "aer_inject_incidents_total",
      "aer_inject_reorder_depth",
  };
  std::vector<std::string> inject_names;
  for (const std::string& name : registry.Names()) {
    if (name.rfind("aer_inject_", 0) == 0) inject_names.push_back(name);
    else EXPECT_EQ(name.rfind("aer_recovery_", 0), 0u) << name;
  }
  EXPECT_EQ(Sorted(inject_names), expected_inject);
  EXPECT_EQ(registry.size(), expected_inject.size() + 13);
}

TEST(MetricNamesTest, ControlPlaneHarnessRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  UserDefinedPolicy policy;
  ctrl::ControlPlaneHarness harness(policy, RecoveryManagerConfig{},
                                    ctrl::ControlHarnessConfig{},
                                    NetFaultScript{});
  harness.SetObservers(nullptr, &registry);
  // The full ctrl stack: coordinators (+ their gating service and embedded
  // recovery manager), the net perturber, and the harness's fence metric.
  const std::vector<std::string> expected_ctrl = {
      "aer_ctrl_actions_gated_total",
      "aer_ctrl_current_epoch",
      "aer_ctrl_elections_started_total",
      "aer_ctrl_heartbeats_sent_total",
      "aer_ctrl_lease_renewals_total",
      "aer_ctrl_leases_acquired_total",
      "aer_ctrl_members_evicted_total",
      "aer_ctrl_members_suspected_total",
      "aer_ctrl_processes_adopted_total",
      "aer_ctrl_snapshots_installed_total",
      "aer_ctrl_stale_actions_rejected_total",
      "aer_ctrl_stale_results_dropped_total",
      "aer_ctrl_stepdowns_total",
      "aer_ctrl_takeovers_total",
      "aer_ctrl_votes_granted_total",
  };
  const std::vector<std::string> expected_net = {
      "aer_inject_coordinator_crashes_total",
      "aer_inject_coordinator_restarts_total",
      "aer_inject_net_msgs_delayed_total",
      "aer_inject_net_msgs_dropped_total",
      "aer_inject_net_msgs_duplicated_total",
      "aer_inject_net_partition_drops_total",
      "aer_inject_partitions_healed_total",
      "aer_inject_partitions_started_total",
  };
  std::vector<std::string> ctrl_names;
  std::vector<std::string> net_names;
  for (const std::string& name : registry.Names()) {
    if (name.rfind("aer_ctrl_", 0) == 0) ctrl_names.push_back(name);
    else if (name.rfind("aer_inject_", 0) == 0) net_names.push_back(name);
    else EXPECT_EQ(name.rfind("aer_recovery_", 0), 0u) << name;
  }
  EXPECT_EQ(Sorted(ctrl_names), expected_ctrl);
  EXPECT_EQ(Sorted(net_names), expected_net);
  EXPECT_EQ(registry.size(),
            expected_ctrl.size() + expected_net.size() + 13);
}

TEST(MetricNamesTest, SimulationPlatformRegistersFrozenSet) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 50;
  config.sim.duration = 20 * kDay;
  const TraceDataset dataset = GenerateTrace(config);
  const std::vector<RecoveryProcess> processes =
      SegmentIntoProcesses(dataset.result.log).processes;
  const ErrorTypeCatalog catalog(processes, 40);
  SimulationPlatform platform(processes, catalog,
                              dataset.result.log.symptoms());
  obs::MetricsRegistry registry;
  platform.SetMetrics(&registry);
  const std::vector<std::string> expected = {
      "aer_replay_cost_seconds",
      "aer_replay_forced_manual_total",
      "aer_replay_total",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, FleetSimulatorRegistersFrozenSet) {
  fleet::FleetSimConfig config;
  config.sim.num_machines = 50;
  config.sim.duration = 5 * kDay;
  config.sim.machine_mtbf_days = 5.0;
  config.sim.seed = 3;
  obs::MetricsRegistry registry;
  UserDefinedPolicy policy;
  fleet::FleetSimulator sim(config, MakeDefaultCatalog());
  sim.SetMetrics(&registry);
  sim.Run(policy);
  const std::vector<std::string> expected = {
      "aer_fleet_arrivals_skipped_total",
      "aer_fleet_arrivals_total",
      "aer_fleet_downtime_seconds_total",
      "aer_fleet_events_total",
      "aer_fleet_machines",
      "aer_fleet_processes_total",
      "aer_fleet_shards",
      "aer_fleet_wheel_peak_events",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, TrainingTelemetryRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  PublishTrainingTelemetry(registry, {});
  PublishTrainingThroughput(registry, 100.0);
  const std::vector<std::string> expected = {
      "aer_training_episodes_per_sec",
      "aer_training_episodes_total",
      "aer_training_max_q_delta",
      "aer_training_q_updates_total",
      "aer_training_sweeps",
      "aer_training_temperature",
      "aer_training_types",
      "aer_training_types_converged",
      "aer_training_visit_coverage",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, TimeSeriesRecorderRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder recorder(registry, {.window_width = 100});
  const std::vector<std::string> expected = {
      "aer_ts_windows_dropped_total",
      "aer_ts_windows_total",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, TraceCollectorRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  obs::TraceCollector collector;
  collector.SetMetrics(&registry);
  const std::vector<std::string> expected = {
      "aer_trace_dropped_total",
      "aer_trace_sampled_total",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, CriticalPathPublisherRegistersFrozenSet) {
  obs::MetricsRegistry registry;
  obs::PublishCriticalPathMetrics(registry, {});
  const std::vector<std::string> expected = {
      "aer_trace_end_to_end_seconds",
      "aer_trace_stage_action_exec_seconds",
      "aer_trace_stage_detect_seconds",
      "aer_trace_stage_dispatch_queue_seconds",
      "aer_trace_stage_dispatch_transit_seconds",
      "aer_trace_stage_election_wait_seconds",
      "aer_trace_stage_fence_admit_seconds",
      "aer_trace_stage_result_transit_seconds",
      "aer_trace_stage_takeover_gap_seconds",
      "aer_trace_stage_timeout_wait_seconds",
  };
  EXPECT_EQ(Sorted(registry.Names()), expected);
}

TEST(MetricNamesTest, AllFrozenNamesAreValid) {
  obs::MetricsRegistry registry;
  UserDefinedPolicy primary;
  UserDefinedPolicy fallback;
  GuardedPolicy guard(primary, fallback);
  guard.SetObservers(nullptr, &registry);
  InjectionHarness harness(guard, RecoveryManagerConfig{}, HarnessConfig{});
  harness.SetObservers(nullptr, &registry);
  ctrl::ControlPlaneHarness ctrl_harness(fallback, RecoveryManagerConfig{},
                                         ctrl::ControlHarnessConfig{},
                                         NetFaultScript{});
  ctrl_harness.SetObservers(nullptr, &registry);
  PublishTrainingTelemetry(registry, {});
  obs::TraceCollector collector;
  collector.SetMetrics(&registry);
  obs::PublishCriticalPathMetrics(registry, {});
  for (const std::string& name : registry.Names()) {
    EXPECT_TRUE(obs::IsValidMetricName(name)) << name;
    EXPECT_EQ(name.rfind("aer_", 0), 0u) << name;
  }
}

}  // namespace
}  // namespace aer
