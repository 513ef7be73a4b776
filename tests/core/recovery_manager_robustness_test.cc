// Dirty-telemetry behavior of the RecoveryManager: out-of-order and
// duplicate events, per-action timeouts with backoff, flap quarantine, and
// bounded per-machine history. The clean-path behavior is covered by
// recovery_manager_test.cc.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/user_policy.h"
#include "common/rng.h"
#include "core/recovery_manager.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto A = RepairAction::kRma;

TEST(RecoveryManagerRobustnessTest, OutOfOrderSymptomIsClampedNotFatal) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(100, 1, "s1");
  manager.OnSymptom(50, 1, "s2");  // delayed delivery: before the watermark
  EXPECT_EQ(manager.stats().out_of_order_events, 1);
  // The log stays monotonic per process (clamped, not reordered).
  ASSERT_EQ(manager.log().size(), 2u);
  EXPECT_EQ(manager.log().entries()[1].time, 100);
}

TEST(RecoveryManagerRobustnessTest, DuplicateSymptomReportIsAbsorbed) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(100, 1, "s1");
  manager.OnSymptom(100, 1, "s1");  // monitoring delivered it twice
  EXPECT_EQ(manager.stats().duplicate_symptoms, 1);
  EXPECT_EQ(manager.log().size(), 1u);
  // A *different* symptom at the same instant is real information.
  manager.OnSymptom(100, 1, "s2");
  EXPECT_EQ(manager.log().size(), 2u);
}

TEST(RecoveryManagerRobustnessTest, DuplicateRecoveryRequestIsIdempotent) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(0, 1, "s");
  const auto first = manager.OnRecoveryNeeded(10, 1);
  const auto second = manager.OnRecoveryNeeded(11, 1);  // retransmission
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(manager.stats().actions_taken, 1);  // recorded once
  EXPECT_EQ(manager.stats().duplicate_recovery_requests, 1);
}

TEST(RecoveryManagerRobustnessTest, TimeoutFailsActionAndEscalates) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  EXPECT_EQ(*manager.OnRecoveryNeeded(10, 1), Y);

  // Before the deadline nothing is overdue.
  EXPECT_TRUE(manager.PollTimeouts(100).empty());
  // At/after the deadline the hung action is declared failed.
  const std::vector<MachineId> overdue = manager.PollTimeouts(110);
  ASSERT_EQ(overdue.size(), 1u);
  EXPECT_EQ(overdue[0], 1);
  EXPECT_EQ(manager.stats().actions_timed_out, 1);

  // The process escalates past the timed-out action.
  EXPECT_EQ(*manager.OnRecoveryNeeded(120, 1), B);
  manager.OnActionResult(130, 1, /*healthy=*/true);
  // Once closed there is nothing left to time out.
  EXPECT_TRUE(manager.PollTimeouts(500).empty());
}

TEST(RecoveryManagerRobustnessTest, TimeoutDeadlineBacksOff) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  config.timeout_backoff = 2.0;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");

  manager.OnRecoveryNeeded(0, 1);
  ASSERT_EQ(manager.PollTimeouts(100).size(), 1u);  // first deadline: 100

  manager.OnRecoveryNeeded(100, 1);
  // Second action gets 100 * 2 = 200: not yet overdue at +150.
  EXPECT_TRUE(manager.PollTimeouts(250).empty());
  ASSERT_EQ(manager.PollTimeouts(300).size(), 1u);
  EXPECT_EQ(manager.stats().actions_timed_out, 2);
}

TEST(RecoveryManagerRobustnessTest, TimeoutsAdvanceTheNCap) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.max_actions_per_process = 3;
  config.action_timeout = 100;
  config.timeout_backoff = 1.0;  // keep deadlines easy to compute
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  manager.OnRecoveryNeeded(0, 1);
  ASSERT_FALSE(manager.PollTimeouts(100).empty());
  manager.OnRecoveryNeeded(100, 1);
  ASSERT_FALSE(manager.PollTimeouts(200).empty());
  // Two hung actions burned two of the three attempts: cap forces RMA.
  EXPECT_EQ(*manager.OnRecoveryNeeded(200, 1), A);
  EXPECT_EQ(manager.stats().manual_repairs_forced, 1);
}

TEST(RecoveryManagerRobustnessTest, LateResultAfterTimeoutIsIgnored) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  manager.OnRecoveryNeeded(0, 1);
  ASSERT_FALSE(manager.PollTimeouts(100).empty());
  // The timed-out action's real (late) failure report arrives afterwards:
  // nothing is in flight, so it must not double-count an outcome.
  const auto actions_before = manager.stats().actions_taken;
  manager.OnActionResult(150, 1, /*healthy=*/false);
  EXPECT_EQ(manager.stats().stale_results_ignored, 1);
  EXPECT_EQ(manager.stats().actions_taken, actions_before);
  EXPECT_TRUE(manager.HasOpenProcess(1));
}

TEST(RecoveryManagerRobustnessTest, LateHealthyResultStillClosesProcess) {
  // A machine that spontaneously recovers (or whose success report was
  // delayed past the timeout) should not be kept in recovery forever.
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  manager.OnRecoveryNeeded(0, 1);
  ASSERT_FALSE(manager.PollTimeouts(100).empty());
  manager.OnActionResult(150, 1, /*healthy=*/true);
  EXPECT_FALSE(manager.HasOpenProcess(1));
  EXPECT_EQ(manager.stats().processes_completed, 1);
}

TEST(RecoveryManagerRobustnessTest, FlappingMachineIsQuarantined) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.flap_threshold = 2;
  config.flap_window = kHour;
  RecoveryManager manager(policy, config);

  // Two quick open/close cycles inside the window: still below threshold.
  for (int i = 0; i < 2; ++i) {
    const SimTime t = i * 600;
    manager.OnSymptom(t, 1, "flappy");
    manager.OnRecoveryNeeded(t + 10, 1);
    manager.OnActionResult(t + 20, 1, true);
    EXPECT_FALSE(manager.IsQuarantined(1));
  }
  // Third open within the hour crosses the threshold: straight to RMA.
  manager.OnSymptom(1200, 1, "flappy");
  EXPECT_TRUE(manager.IsQuarantined(1));
  EXPECT_EQ(*manager.OnRecoveryNeeded(1210, 1), A);
  EXPECT_EQ(manager.stats().flap_quarantines, 1);
  manager.OnActionResult(1300, 1, true);

  // Far outside the window the machine gets the normal ladder again.
  manager.OnSymptom(1200 + 10 * kHour, 1, "flappy");
  EXPECT_FALSE(manager.IsQuarantined(1));
  EXPECT_EQ(*manager.OnRecoveryNeeded(1210 + 10 * kHour, 1), Y);
}

TEST(RecoveryManagerRobustnessTest, HistoryIsEvictedAfterRetention) {
  // Regression test for unbounded last-recovery-end growth: one completed
  // process per machine across a large fleet must not be retained forever.
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.history_retention = kDay;
  RecoveryManager manager(policy, config);

  constexpr int kMachines = 200;
  for (int m = 0; m < kMachines; ++m) {
    const SimTime t = m * 10;
    manager.OnSymptom(t, m, "s");
    manager.OnRecoveryNeeded(t + 1, m);
    manager.OnActionResult(t + 2, m, true);
  }
  EXPECT_EQ(manager.history_size(), static_cast<std::size_t>(kMachines));

  // A trickle of new processes far in the future sweeps the stale entries.
  for (int m = 0; m < 100; ++m) {
    const SimTime t = 10 * kDay + m * 10;
    manager.OnSymptom(t, 1000 + m, "s");
    manager.OnRecoveryNeeded(t + 1, 1000 + m);
    manager.OnActionResult(t + 2, 1000 + m, true);
  }
  EXPECT_LT(manager.history_size(), static_cast<std::size_t>(kMachines));
  EXPECT_GT(manager.stats().history_evictions, 0);
}

TEST(RecoveryManagerRobustnessTest, ExportSnapshotsOpenProcessesInOrder) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  for (MachineId m : {5, 2, 9}) {
    manager.OnSymptom(10, m, "s");
    manager.OnRecoveryNeeded(20, m);
  }
  // Machine 2 completes: only still-open processes are exported.
  manager.OnActionResult(30, 2, /*healthy=*/true);

  const auto snapshots = manager.ExportOpenProcesses();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].machine, 5);
  EXPECT_EQ(snapshots[1].machine, 9);
  EXPECT_EQ(snapshots[0].symptom, "s");
  EXPECT_EQ(snapshots[0].tried, std::vector<RepairAction>{Y});
}

TEST(RecoveryManagerRobustnessTest, AdoptResumesAttemptHistory) {
  // Leader-side manager works two attempts into a process...
  UserDefinedPolicy policy_a;
  RecoveryManager leader(policy_a);
  leader.OnSymptom(0, 7, "s");
  EXPECT_EQ(*leader.OnRecoveryNeeded(10, 7), Y);
  leader.OnActionResult(20, 7, /*healthy=*/false);
  EXPECT_EQ(*leader.OnRecoveryNeeded(20, 7), B);
  leader.OnActionResult(30, 7, /*healthy=*/false);
  const auto snapshots = leader.ExportOpenProcesses();
  ASSERT_EQ(snapshots.size(), 1u);

  // ...and the takeover manager resumes at attempt 3, not attempt 1: the
  // user ladder grants reboot two tries, so the next action is the second
  // reboot — never a restarted kTryNop.
  UserDefinedPolicy policy_b;
  RecoveryManager follower(policy_b);
  EXPECT_TRUE(follower.AdoptProcess(40, snapshots[0]));
  EXPECT_EQ(follower.stats().processes_adopted, 1);
  EXPECT_EQ(follower.ActionsTried(7), 2);
  EXPECT_EQ(*follower.OnRecoveryNeeded(50, 7), B);
  follower.OnActionResult(60, 7, /*healthy=*/true);
  EXPECT_EQ(follower.stats().processes_completed, 1);
}

TEST(RecoveryManagerRobustnessTest, AdoptRefusesAnAlreadyOpenProcess) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(0, 7, "s");
  manager.OnRecoveryNeeded(10, 7);
  const auto snapshots = manager.ExportOpenProcesses();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_FALSE(manager.AdoptProcess(20, snapshots[0]));
  EXPECT_EQ(manager.stats().processes_adopted, 0);
  EXPECT_EQ(manager.ActionsTried(7), 1);
}

TEST(RecoveryManagerRobustnessTest, AdoptedAttemptsCountTowardTheNCap) {
  UserDefinedPolicy policy_a;
  RecoveryManager leader(policy_a);
  leader.OnSymptom(0, 7, "s");
  leader.OnRecoveryNeeded(10, 7);
  leader.OnActionResult(20, 7, /*healthy=*/false);
  leader.OnRecoveryNeeded(20, 7);

  UserDefinedPolicy policy_b;
  RecoveryManagerConfig config;
  config.max_actions_per_process = 3;
  RecoveryManager follower(policy_b, config);
  ASSERT_TRUE(follower.AdoptProcess(30, leader.ExportOpenProcesses()[0]));
  // Two adopted attempts burned two of three: the cap forces RMA now.
  EXPECT_EQ(*follower.OnRecoveryNeeded(40, 7), A);
  EXPECT_EQ(follower.stats().manual_repairs_forced, 1);
}

TEST(RecoveryManagerRobustnessTest, AdoptResetsInFlightState) {
  // The snapshot is taken while an action is in flight on the old leader;
  // the adopter must not inherit that deadline (the result will never reach
  // it) — only its own next dispatch starts a timeout clock.
  UserDefinedPolicy policy_a;
  RecoveryManager leader(policy_a);
  leader.OnSymptom(0, 7, "s");
  leader.OnRecoveryNeeded(10, 7);  // in flight at export time

  UserDefinedPolicy policy_b;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager follower(policy_b, config);
  ASSERT_TRUE(follower.AdoptProcess(20, leader.ExportOpenProcesses()[0]));
  EXPECT_TRUE(follower.PollTimeouts(100000).empty());
  EXPECT_EQ(*follower.OnRecoveryNeeded(30, 7), B);
  ASSERT_EQ(follower.PollTimeouts(130).size(), 1u);
}

TEST(RecoveryManagerRobustnessTest, AdoptCarriesQuarantineAcrossTakeover) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  OpenProcessSnapshot snapshot;
  snapshot.machine = 7;
  snapshot.start = 0;
  snapshot.symptom = "flappy";
  snapshot.quarantined = true;
  ASSERT_TRUE(manager.AdoptProcess(10, snapshot));
  EXPECT_TRUE(manager.IsQuarantined(7));
  EXPECT_EQ(*manager.OnRecoveryNeeded(20, 7), A);
}

TEST(RecoveryManagerRobustnessTest, RecentHistorySurvivesEviction) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.history_retention = 30 * kDay;
  RecoveryManager manager(policy, config);
  // Complete a process, then many unrelated ones to trigger sweeps.
  manager.OnSymptom(0, 7, "s");
  manager.OnRecoveryNeeded(1, 7);
  manager.OnActionResult(1000, 7, true);
  for (int m = 0; m < 100; ++m) {
    const SimTime t = 2000 + m * 10;
    manager.OnSymptom(t, 100 + m, "s");
    manager.OnRecoveryNeeded(t + 1, 100 + m);
    manager.OnActionResult(t + 2, 100 + m, true);
  }
  // Machine 7's history is inside retention: the recurring-failure shortcut
  // must still see last_recovery_end and skip the watch level.
  manager.OnSymptom(1000 + kHour, 7, "s");
  EXPECT_EQ(*manager.OnRecoveryNeeded(1001 + kHour, 7), B);
}

TEST(RecoveryManagerRobustnessTest, UnboundedRetentionNeverEvicts) {
  // "Keep forever" windows must not overflow the eviction index's keys.
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.history_retention = std::numeric_limits<SimTime>::max();
  config.flap_window = std::numeric_limits<SimTime>::max();
  RecoveryManager manager(policy, config);
  for (MachineId m = 0; m < 128; ++m) {
    manager.OnSymptom(m * 10, m, "s");
    manager.OnRecoveryNeeded(m * 10 + 1, m);
    manager.OnActionResult(m * 10 + 2, m, /*healthy=*/true);
  }
  EXPECT_EQ(manager.history_size(), 128u);
  EXPECT_EQ(manager.stats().history_evictions, 0);
}

TEST(RecoveryManagerRobustnessTest, FlapCountIgnoresOtherMachinesCloses) {
  // A delayed symptom of machine 1 must see machine 1's earlier open inside
  // the flap window whether or not other machines' closes (at a later time)
  // triggered a history sweep in between.
  RecoveryManagerConfig config;
  config.flap_threshold = 1;
  config.flap_window = 21600;
  for (const bool other_closes : {false, true}) {
    UserDefinedPolicy policy;
    RecoveryManager manager(policy, config);
    manager.OnSymptom(1000, 1, "s");
    manager.OnRecoveryNeeded(1000, 1);
    manager.OnActionResult(1001, 1, /*healthy=*/true);
    if (other_closes) {
      for (MachineId m = 100; m < 164; ++m) {
        manager.OnSymptom(30000, m, "s");
        manager.OnRecoveryNeeded(30000, m);
        manager.OnActionResult(30000, m, /*healthy=*/true);
      }
    }
    manager.OnSymptom(20000, 1, "s");
    EXPECT_TRUE(manager.IsQuarantined(1)) << "other_closes=" << other_closes;
    EXPECT_EQ(manager.stats().flap_quarantines, 1);
  }
}

// Reference model of the retained history: at every 64th close it applies
// the eviction rule to every machine, with no index.
class HistoryModel {
 public:
  explicit HistoryModel(const RecoveryManagerConfig& config)
      : config_(config) {}

  // OnSymptom opened a process at `time`: prune, record, count a flap.
  void Open(MachineId machine, SimTime time) {
    Entry& entry = history_[machine];
    std::erase_if(entry.opens, [&](SimTime open_time) {
      return open_time <= time - config_.flap_window;
    });
    entry.opens.push_back(time);
    if (static_cast<int>(entry.opens.size()) > config_.flap_threshold) {
      ++quarantines_;
    }
  }

  void Adopt(MachineId machine) { history_[machine]; }

  void Close(MachineId machine, SimTime now, const RecoveryManager& manager) {
    history_[machine].last_recovery_end = now;
    ++closes_;
    if (closes_ % 64 != 0) return;
    evictions_ += std::erase_if(history_, [&](const auto& item) {
      const auto& [id, entry] = item;
      if (entry.last_recovery_end >= now - config_.history_retention) {
        return false;
      }
      for (const SimTime open_time : entry.opens) {
        if (open_time > now - config_.flap_window) return false;
      }
      return !manager.HasOpenProcess(id);
    });
  }

  std::size_t size() const { return history_.size(); }
  std::int64_t closes() const { return closes_; }
  std::int64_t evictions() const { return evictions_; }
  std::int64_t quarantines() const { return quarantines_; }

 private:
  struct Entry {
    SimTime last_recovery_end = -1;
    std::vector<SimTime> opens;
  };
  RecoveryManagerConfig config_;
  std::unordered_map<MachineId, Entry> history_;
  std::int64_t closes_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t quarantines_ = 0;
};

TEST(RecoveryManagerRobustnessTest, EvictionIndexMatchesFullScanModel) {
  // Dirty seeded streams (out-of-order times, duplicate symptoms and
  // results, timeouts, adoptions) with a short retention and flap window so
  // sweeps evict often; the indexed eviction must agree with the model's
  // full scan after every call, and flap counts with the model's own-opens
  // count.
  RecoveryManagerConfig config;
  config.max_actions_per_process = 5;
  config.action_timeout = 40;
  config.flap_threshold = 2;
  config.flap_window = 300;
  config.history_retention = 500;
  constexpr int kMachines = 300;
  constexpr int kHotMachines = 8;
  constexpr int kSteps = 20000;
  const std::string kSymptoms[] = {"s1", "s2", "s3"};

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    UserDefinedPolicy policy;
    RecoveryManager manager(policy, config);
    HistoryModel model(config);
    Rng rng(seed);

    const auto symptom = [&](SimTime t, MachineId m) {
      const bool was_open = manager.HasOpenProcess(m);
      manager.OnSymptom(t, m, kSymptoms[rng.NextBounded(3)]);
      if (!was_open) model.Open(m, t);
    };
    const auto result = [&](SimTime t, MachineId m, bool healthy) {
      const std::int64_t completed = manager.stats().processes_completed;
      manager.OnActionResult(t, m, healthy);
      if (manager.stats().processes_completed != completed) {
        model.Close(m, manager.log().entries().back().time, manager);
      }
    };

    SimTime clock = 0;
    for (int step = 0; step < kSteps; ++step) {
      clock += rng.NextInt(0, 8);
      // A quarter of the events arrive late, some by more than the window.
      const SimTime t = rng.NextBool(0.25) ? clock - rng.NextInt(0, 400)
                                           : clock;
      // Half the events hit a few hot machines, so they flap.
      const auto m = static_cast<MachineId>(
          rng.NextBounded(rng.NextBool(0.5) ? kHotMachines : kMachines));
      const std::uint64_t kind = rng.NextBounded(16);
      if (kind < 4) {
        symptom(t, m);
        if (rng.NextBool(0.25)) symptom(t, m);
      } else if (kind < 8) {
        manager.OnRecoveryNeeded(t, m);
      } else if (kind < 13) {
        const bool healthy = rng.NextBool(0.6);
        result(t, m, healthy);
        if (rng.NextBool(0.2)) result(t, m, healthy);
      } else if (kind < 15) {
        for (const MachineId overdue : manager.PollTimeouts(t)) {
          if (rng.NextBool(0.5)) manager.OnRecoveryNeeded(t, overdue);
        }
      } else {
        OpenProcessSnapshot snapshot;
        snapshot.machine = m;
        snapshot.start = t - rng.NextInt(0, 100);
        snapshot.symptom = kSymptoms[rng.NextBounded(3)];
        snapshot.tried.assign(rng.NextBounded(3), Y);
        snapshot.quarantined = rng.NextBool(0.1);
        snapshot.last_event_time = t;
        if (manager.AdoptProcess(t, snapshot)) model.Adopt(m);
      }
      ASSERT_EQ(manager.history_size(), model.size()) << "step " << step;
    }
    const RecoveryManager::Stats& stats = manager.stats();
    EXPECT_EQ(stats.processes_completed, model.closes());
    EXPECT_EQ(stats.history_evictions, model.evictions());
    EXPECT_EQ(stats.flap_quarantines, model.quarantines());
    EXPECT_GT(model.evictions(), 0);
    EXPECT_GT(model.quarantines(), 0);
  }
}

}  // namespace
}  // namespace aer
