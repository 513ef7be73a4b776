// End-to-end control-plane scenarios on the deterministic sim-time harness:
// clean runs, leader crash mid-recovery with takeover-resume, symmetric and
// asymmetric partitions, fencing of stale dispatches, and a 50-seed sweep
// under probabilistic message faults — every run must terminate with all
// incidents cured and the invariant auditor clean.
#include "ctrl/harness.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/user_policy.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"

namespace aer::ctrl {
namespace {

// Compressed time scale so scenarios run in a few hundred sim-seconds:
// 5s ticks, 30s leases, 15s/60s suspicion, and repair actions of 2..20s.
ControlHarnessConfig FastConfig(int cluster_size) {
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
  return config;
}

RecoveryManagerConfig ManagerConfig() {
  RecoveryManagerConfig config;
  config.action_timeout = 120;
  return config;
}

std::vector<int> ExecutedOn(const ControlHarnessResult& result,
                            MachineId machine) {
  std::vector<int> actions;
  for (const ExecutedAction& e : result.executed) {
    if (e.machine == machine) actions.push_back(e.action);
  }
  return actions;
}

TEST(ControlHarnessTest, CleanRunCuresEverythingUnderOneLeader) {
  UserDefinedPolicy policy;
  ControlPlaneHarness harness(policy, ManagerConfig(), FastConfig(3),
                              NetFaultScript{});
  obs::MetricsRegistry metrics;
  obs::TraceCollector traces;
  harness.SetObservers(&traces, &metrics);

  const ControlHarnessResult result = harness.Run({
      {20, 1, "Watchdog", 0},
      {25, 2, "Watchdog", 1},
      {30, 3, "NoHeartbeat", 2},
  });

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.cures, 3);
  EXPECT_TRUE(result.audit.Clean());
  EXPECT_EQ(result.audit.epochs_with_holder, 1);
  EXPECT_EQ(result.stale_rejected, 0);
  EXPECT_EQ(result.coordinators.leases_acquired, 1);
  EXPECT_EQ(result.coordinators.elections_started, 1);
  EXPECT_EQ(result.coordinators.takeovers, 0);
  EXPECT_GT(result.coordinators.lease_renewals, 0);
  // The policy escalates exactly as far as each fault requires.
  EXPECT_EQ(ExecutedOn(result, 1), (std::vector<int>{0}));
  EXPECT_EQ(ExecutedOn(result, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(ExecutedOn(result, 3), (std::vector<int>{0, 1, 1, 2}));
  // Followers saw every symptom too and were gated each time.
  EXPECT_GT(result.actions_gated, 0);
  for (const DispatchRecord& record : result.dispatch_log) {
    EXPECT_EQ(record.issuer, 0);
    EXPECT_EQ(record.epoch, 1u);
  }
  EXPECT_GE(metrics.GetCounter("aer_ctrl_leases_acquired_total").value(), 1);
  EXPECT_GT(metrics.GetCounter("aer_ctrl_heartbeats_sent_total").value(), 0);
  EXPECT_GT(metrics.GetCounter("aer_ctrl_actions_gated_total").value(), 0);
}

TEST(ControlHarnessTest, LeaderCrashMidRecoveryFollowerResumesNotRestarts) {
  UserDefinedPolicy policy;
  NetFaultScript script;
  // Node 0 dies while machine 7's first reimage is executing; its restart
  // happens between recoveries, after which it rejoins as a follower.
  script.crashes.push_back({72, 0, 300});

  ControlPlaneHarness harness(policy, ManagerConfig(), FastConfig(3),
                              script);
  const ControlHarnessResult result = harness.Run({
      {50, 7, "NoHeartbeat", 3},
      {400, 9, "Watchdog", 1},
  });

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.cures, 2);
  EXPECT_TRUE(result.audit.Clean());
  EXPECT_EQ(result.audit.duplicate_leaseholders, 0);
  EXPECT_EQ(result.audit.stale_executed, 0);
  EXPECT_EQ(result.net.crashes, 1);
  EXPECT_EQ(result.net.restarts, 1);
  // The in-flight reimage's result was addressed to the dead leader.
  EXPECT_GE(result.results_lost, 1);
  // Exactly one takeover adopted exactly the one open process.
  EXPECT_EQ(result.coordinators.takeovers, 1);
  EXPECT_EQ(result.coordinators.processes_adopted, 1);
  // Resume, not restart: machine 7 sees the escalation ladder exactly once
  // — the successor continues at reimage #2 instead of starting over with
  // a second TryNop.
  EXPECT_EQ(ExecutedOn(result, 7), (std::vector<int>{0, 1, 1, 2, 2, 3}));
  EXPECT_EQ(ExecutedOn(result, 9), (std::vector<int>{0, 1}));
  // The crashed node issued nothing after its death.
  for (const DispatchRecord& record : result.dispatch_log) {
    if (record.issuer == 0) {
      EXPECT_LT(record.time, 72);
    }
  }
}

TEST(ControlHarnessTest, PartitionedLeaderStopsIssuingBeforeLeaseExpiry) {
  UserDefinedPolicy policy;
  NetFaultScript script;
  // Symmetric partition isolates the leader from both followers for the
  // rest of the run, mid-way through a long recovery.
  LinkPartition partition;
  partition.from = 60;
  partition.until = 100'000;
  partition.side_a = {0};
  partition.side_b = {1, 2};
  script.partitions.push_back(partition);

  ControlPlaneHarness harness(policy, ManagerConfig(), FastConfig(3),
                              script);
  const ControlHarnessResult result =
      harness.Run({{30, 3, "NoHeartbeat", 3}});

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.cures, 1);
  EXPECT_TRUE(result.audit.Clean());
  EXPECT_EQ(result.audit.epochs_with_holder, 2);
  EXPECT_EQ(result.audit.duplicate_leaseholders, 0);
  // The isolated minority's lease ran out 30s (one lease) after the cut:
  // every action it ever issued predates that, and everything after the
  // cut-over came from the majority-side successor under a higher epoch.
  for (const DispatchRecord& record : result.dispatch_log) {
    if (record.issuer == 0) {
      EXPECT_LT(record.time, 90);
      EXPECT_EQ(record.epoch, 1u);
    } else {
      EXPECT_EQ(record.issuer, 1);
      EXPECT_EQ(record.epoch, 2u);
    }
  }
  EXPECT_GT(result.actions_gated, 0);
  EXPECT_EQ(result.coordinators.takeovers, 1);
  EXPECT_EQ(result.coordinators.processes_adopted, 1);
  EXPECT_GE(result.coordinators.stepdowns, 1);
  EXPECT_GT(result.net.partition_drops, 0);
  EXPECT_EQ(result.net.partitions_started, 1);
}

TEST(ControlHarnessTest, AsymmetricPartitionConvergesToMajoritySide) {
  UserDefinedPolicy policy;
  NetFaultScript script;
  // One-way link loss: the old leader can hear the majority but not reach
  // it. Its renewals die, the majority elects a successor, and the old
  // leader's futile re-bids can never assemble a quorum.
  LinkPartition partition;
  partition.from = 60;
  partition.until = 100'000;
  partition.side_a = {0};
  partition.side_b = {1, 2};
  partition.asymmetric = true;
  script.partitions.push_back(partition);

  ControlPlaneHarness harness(policy, ManagerConfig(), FastConfig(3),
                              script);
  const ControlHarnessResult result = harness.Run({
      {30, 3, "Watchdog", 1},   // cured by node 0 before the cut
      {100, 4, "Watchdog", 0},  // cured by node 1 after the cut-over
  });

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.cures, 2);
  EXPECT_TRUE(result.audit.Clean());
  EXPECT_EQ(result.audit.epochs_with_holder, 2);
  EXPECT_GE(result.coordinators.stepdowns, 1);
  for (const DispatchRecord& record : result.dispatch_log) {
    if (record.machine == 3) {
      EXPECT_EQ(record.issuer, 0);
      EXPECT_EQ(record.epoch, 1u);
    } else {
      EXPECT_EQ(record.issuer, 1);
      EXPECT_EQ(record.epoch, 2u);
    }
  }
}

TEST(ControlHarnessTest, DelayedStaleDispatchIsFencedNotExecuted) {
  UserDefinedPolicy policy;
  ControlHarnessConfig config = FastConfig(3);
  // The old leader's second dispatch (machine 7's reboot, epoch 1) is held
  // in transit for 300s — long enough for the leader to die, a successor to
  // take over, and the same reboot to run again under epoch 2. When the
  // time-shifted original finally arrives, the machine's fence must refuse
  // it.
  config.dispatch_delays.push_back({1, 300});
  NetFaultScript script;
  script.crashes.push_back({60, 0, -1});

  ControlPlaneHarness harness(policy, ManagerConfig(), config, script);
  const ControlHarnessResult result =
      harness.Run({{50, 7, "Watchdog", 1}});

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.cures, 1);
  EXPECT_EQ(result.stale_rejected, 1);
  EXPECT_EQ(result.audit.stale_rejected, 1);
  EXPECT_EQ(result.audit.stale_executed, 0);
  EXPECT_TRUE(result.audit.Clean());
  // The fenced epoch-1 reboot never ran: machine 7 executed TryNop under
  // epoch 1 and one reboot under epoch 2 only.
  EXPECT_EQ(ExecutedOn(result, 7), (std::vector<int>{0, 1}));
  EXPECT_EQ(result.coordinators.takeovers, 1);
}

TEST(ControlHarnessTest, SeedSweepStaysCuredAndAuditCleanUnderMessageChaos) {
  // 50 seeds of probabilistic drop/delay/duplication on the control links,
  // layered over a scripted leader crash+restart and a follower partition.
  // Dispatches and results ride the (reliable) machine network, so chaos
  // hits elections, renewals, and replication — exactly the paths the
  // invariants guard.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    UserDefinedPolicy policy;
    ControlHarnessConfig config = FastConfig(3);
    config.net.seed = seed;
    config.net.drop_message = 0.05;
    config.net.delay_message = 0.10;
    config.net.duplicate_message = 0.05;
    config.net.max_delay = 3;
    config.max_events = 200'000;
    NetFaultScript script;
    script.crashes.push_back({100, 0, 300});
    LinkPartition partition;
    partition.from = 400;
    partition.until = 460;
    partition.side_a = {2};
    partition.side_b = {0, 1};
    script.partitions.push_back(partition);

    ControlPlaneHarness harness(policy, ManagerConfig(), config, script);
    const ControlHarnessResult result = harness.Run({
        {50, 1, "Watchdog", 0},
        {150, 2, "Watchdog", 1},
        {250, 3, "NoHeartbeat", 2},
        {450, 4, "Watchdog", 1},
    });

    EXPECT_TRUE(result.all_completed) << "seed " << seed;
    EXPECT_EQ(result.cures, 4) << "seed " << seed;
    EXPECT_TRUE(result.audit.Clean()) << "seed " << seed;
    EXPECT_EQ(result.audit.duplicate_leaseholders, 0) << "seed " << seed;
    EXPECT_EQ(result.audit.issued_without_lease, 0) << "seed " << seed;
    EXPECT_EQ(result.audit.stale_executed, 0) << "seed " << seed;
  }
}

TEST(ControlHarnessTest, SameSeedReproducesByteIdenticalRuns) {
  auto run = [] {
    UserDefinedPolicy policy;
    ControlHarnessConfig config = FastConfig(3);
    config.net.seed = 7;
    config.net.drop_message = 0.05;
    config.net.delay_message = 0.10;
    config.net.duplicate_message = 0.05;
    NetFaultScript script;
    script.crashes.push_back({100, 0, 300});
    ControlPlaneHarness harness(policy, ManagerConfig(), config, script);
    return harness.Run({{50, 1, "Watchdog", 2}, {150, 2, "Watchdog", 1}});
  };
  const ControlHarnessResult a = run();
  const ControlHarnessResult b = run();
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.cure_times, b.cure_times);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// Scripted crashes index per-node state: a node id outside the cluster (a
// 3-node script reused on one coordinator) is refused up front.
TEST(ControlHarnessDeathTest, ScriptedCrashOutsideTheClusterIsRefused) {
  UserDefinedPolicy policy;
  NetFaultScript script;
  script.crashes.push_back({72, 5, 300});
  EXPECT_DEATH(ControlPlaneHarness(policy, ManagerConfig(), FastConfig(1),
                                   script),
               "scripted crash names a node outside the cluster");
}

}  // namespace
}  // namespace aer::ctrl
