// The cluster simulation run serially (FleetSimulator::Run with no pool, the
// engine behind GenerateTrace): determinism, log well-formedness, ground-truth
// accounting, the N cap, fleet exhaustion, and the optional noise,
// heterogeneity and diurnal paths.
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "fleet/fleet_sim.h"
#include "fleet/trace.h"
#include "log/recovery_process.h"

namespace aer {
namespace {

SimulationResult Simulate(const ClusterSimConfig& config,
                          const FaultCatalog& catalog,
                          RecoveryPolicy& policy) {
  return fleet::FleetSimulator(fleet::FleetSimConfig{.sim = config}, catalog)
      .Run(policy);
}

ClusterSimConfig SmallConfig() {
  ClusterSimConfig config;
  config.num_machines = 50;
  config.duration = 20 * kDay;
  config.machine_mtbf_days = 5.0;
  config.seed = 7;
  return config;
}

TEST(ClusterSimTest, DeterministicForSeed) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  UserDefinedPolicy policy_a;
  UserDefinedPolicy policy_b;
  SimulationResult a = Simulate(SmallConfig(), catalog, policy_a);
  SimulationResult b = Simulate(SmallConfig(), catalog, policy_b);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_EQ(a.log.entries()[i], b.log.entries()[i]) << "entry " << i;
  }
  EXPECT_EQ(a.total_downtime, b.total_downtime);
}

TEST(ClusterSimTest, DifferentSeedsDiffer) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  UserDefinedPolicy policy;
  ClusterSimConfig other = SmallConfig();
  other.seed = 8;
  SimulationResult a = Simulate(SmallConfig(), catalog, policy);
  SimulationResult b = Simulate(other, catalog, policy);
  EXPECT_NE(a.log.size(), b.log.size());
}

TEST(ClusterSimTest, LogIsWellFormedPerMachine) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  UserDefinedPolicy policy;
  const SimulationResult result = Simulate(SmallConfig(), catalog, policy);
  ASSERT_GT(result.log.size(), 100u);

  // Per machine: Success only after >= 1 action; actions only after a
  // symptom; time non-decreasing.
  std::map<MachineId, int> actions_since_symptom;
  std::map<MachineId, bool> in_process;
  SimTime last_time = 0;
  for (const LogEntry& e : result.log.entries()) {
    EXPECT_GE(e.time, last_time);
    last_time = e.time;
    switch (e.kind) {
      case EntryKind::kSymptom:
        in_process[e.machine] = true;
        break;
      case EntryKind::kAction:
        EXPECT_TRUE(in_process[e.machine]);
        ++actions_since_symptom[e.machine];
        break;
      case EntryKind::kSuccess:
        EXPECT_TRUE(in_process[e.machine]);
        EXPECT_GE(actions_since_symptom[e.machine], 1);
        in_process[e.machine] = false;
        actions_since_symptom[e.machine] = 0;
        break;
    }
  }
}

TEST(ClusterSimTest, GroundTruthMatchesCompletedProcesses) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  UserDefinedPolicy policy;
  const SimulationResult result = Simulate(SmallConfig(), catalog, policy);
  EXPECT_EQ(result.ground_truth.size(),
            static_cast<std::size_t>(result.processes_completed));
  SimTime downtime = 0;
  for (const ProcessGroundTruth& gt : result.ground_truth) {
    EXPECT_GE(gt.fault_index, 0);
    EXPECT_LT(static_cast<std::size_t>(gt.fault_index),
              catalog.faults.size());
    EXPECT_GT(gt.end, gt.start);
    downtime += gt.end - gt.start;
  }
  EXPECT_EQ(downtime, result.total_downtime);
}

TEST(ClusterSimTest, NCapForcesManualRepair) {
  // A fault nothing cures except manual repair, with a tiny cap.
  FaultCatalog catalog;
  FaultType f;
  f.name = "F000-hardware";
  f.primary_symptom = "F000-Dead";
  f.responses = {{{0.0, 100, 0.1}, {0.0, 200, 0.1}, {0.0, 300, 0.1},
                  {1.0, 1000, 0.1}}};
  f.relative_rate = 1.0;
  catalog.faults.push_back(f);

  ClusterSimConfig config = SmallConfig();
  config.max_actions_per_process = 5;
  UserDefinedPolicy policy;  // would try T,B,B,I,I,... without the cap
  const SimulationResult result = Simulate(config, catalog, policy);
  ASSERT_GT(result.processes_completed, 10);

  // Count actions per machine's open process: exactly 5, the last being RMA.
  std::map<MachineId, int> actions;
  for (const LogEntry& e : result.log.entries()) {
    if (e.kind == EntryKind::kAction) {
      const int n = ++actions[e.machine];
      if (n == config.max_actions_per_process) {
        EXPECT_EQ(e.action, RepairAction::kRma);
      }
      EXPECT_LE(n, config.max_actions_per_process);
    } else if (e.kind == EntryKind::kSuccess) {
      EXPECT_EQ(actions[e.machine], config.max_actions_per_process);
      actions[e.machine] = 0;
    }
  }
}

TEST(ClusterSimTest, FleetExhaustionSkipsArrivals) {
  // One machine, long repairs, rapid faults: most arrivals find no healthy
  // machine.
  FaultCatalog catalog;
  FaultType f;
  f.name = "F000-hardware";
  f.primary_symptom = "F000-Dead";
  f.responses = {{{0.0, 3600, 0.1}, {0.0, 3600, 0.1}, {0.0, 3600, 0.1},
                  {1.0, 10 * kDay, 0.1}}};
  f.relative_rate = 1.0;
  catalog.faults.push_back(f);

  ClusterSimConfig config;
  config.num_machines = 1;
  config.duration = 30 * kDay;
  config.machine_mtbf_days = 1.0;
  config.seed = 3;
  UserDefinedPolicy policy;
  const SimulationResult result = Simulate(config, catalog, policy);
  EXPECT_GT(result.fault_arrivals_skipped, 0);
}

TEST(ClusterSimTest, SymptomsReemittedBetweenActions) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  UserDefinedPolicy policy;
  const SimulationResult result = Simulate(SmallConfig(), catalog, policy);
  // Look for the Table 1 pattern: action, symptom, action within one
  // machine's process.
  bool found = false;
  std::map<MachineId, bool> after_action;
  for (const LogEntry& e : result.log.entries()) {
    if (e.kind == EntryKind::kAction) {
      after_action[e.machine] = true;
    } else if (e.kind == EntryKind::kSymptom && after_action[e.machine]) {
      found = true;
      break;
    } else if (e.kind == EntryKind::kSuccess) {
      after_action[e.machine] = false;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ClusterSimTest, CrossFaultNoiseInjectsForeignPrimaries) {
  FaultCatalog catalog = MakeDefaultCatalog();
  ClusterSimConfig config = SmallConfig();
  config.cross_fault_noise_probability = 0.5;
  UserDefinedPolicy policy;
  const SimulationResult result = Simulate(config, catalog, policy);
  std::int64_t noisy = 0;
  for (const ProcessGroundTruth& gt : result.ground_truth) {
    if (gt.noisy) ++noisy;
  }
  // Half the processes carry cross-fault noise (minus same-fault draws and
  // generic-only noise adds some more).
  EXPECT_GT(static_cast<double>(noisy) /
                static_cast<double>(result.ground_truth.size()),
            0.3);
}

TEST(ClusterSimTest, MachineSpeedSpreadScalesDurations) {
  // A single deterministic-cure fault isolates the duration effect.
  FaultCatalog catalog;
  FaultType f;
  f.name = "F000-transient";
  f.primary_symptom = "F000-Sym";
  f.responses = {{{1.0, 3600, 0.0}, {1.0, 3600, 0.0}, {1.0, 3600, 0.0},
                  {1.0, 3600, 0.0}}};
  f.relative_rate = 1.0;
  catalog.faults.push_back(f);

  ClusterSimConfig config = SmallConfig();
  config.machine_speed_spread = 0.5;
  UserDefinedPolicy policy;
  const SimulationResult result = Simulate(config, catalog, policy);

  // Per-machine mean action duration must vary well beyond sampling noise
  // (durations have sigma = 0, so all within-machine variation is zero).
  std::map<MachineId, std::pair<double, int>> per_machine;
  const auto segmented = SegmentIntoProcesses(result.log);
  for (const RecoveryProcess& p : segmented.processes) {
    for (const ActionAttempt& a : p.attempts()) {
      // Subtract the decision gap's contribution by using only the cured
      // (final) attempt whose cost is the pure duration.
      if (!a.cured) continue;
      auto& [sum, n] = per_machine[p.machine()];
      sum += static_cast<double>(a.cost);
      ++n;
    }
  }
  double lo = 1e18;
  double hi = 0.0;
  for (const auto& [machine, sum_n] : per_machine) {
    if (sum_n.second < 3) continue;
    const double mean = sum_n.first / sum_n.second;
    lo = std::min(lo, mean);
    hi = std::max(hi, mean);
  }
  EXPECT_GT(hi / lo, 1.3) << "speed spread must differentiate machines";

  // And spread 0 keeps every machine identical.
  ClusterSimConfig homogeneous = SmallConfig();
  UserDefinedPolicy policy2;
  const SimulationResult r2 = Simulate(homogeneous, catalog, policy2);
  const auto seg2 = SegmentIntoProcesses(r2.log);
  for (const RecoveryProcess& p : seg2.processes) {
    for (const ActionAttempt& a : p.attempts()) {
      // sigma = 0: exp(log(3600)) truncates to 3599 or 3600 in integer time.
      if (a.cured) {
        EXPECT_NEAR(static_cast<double>(a.cost), 3600.0, 1.0);
      }
    }
  }
}

TEST(ClusterSimTest, DiurnalAmplitudeShapesArrivals) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  ClusterSimConfig config = SmallConfig();
  config.num_machines = 300;
  config.machine_mtbf_days = 2.0;
  config.duration = 30 * kDay;
  config.diurnal_amplitude = 0.8;
  UserDefinedPolicy policy;
  const SimulationResult result = Simulate(config, catalog, policy);

  // Count process starts in the peak half-day (sin > 0: hours 0-12) vs the
  // trough half-day.
  std::int64_t peak = 0;
  std::int64_t trough = 0;
  for (const ProcessGroundTruth& gt : result.ground_truth) {
    ((gt.start % kDay) < kDay / 2 ? peak : trough) += 1;
  }
  ASSERT_GT(peak + trough, 1000);
  // With amplitude 0.8 the half-day integrals are 1 ± 2*0.8/π ≈ 1.51 vs
  // 0.49: about a 3:1 ratio.
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(trough), 2.0);

  // Mean rate is preserved by thinning: total arrivals comparable to the
  // homogeneous run (within sampling noise).
  ClusterSimConfig flat = config;
  flat.diurnal_amplitude = 0.0;
  UserDefinedPolicy policy2;
  const SimulationResult flat_result = Simulate(flat, catalog, policy2);
  const double ratio =
      static_cast<double>(result.processes_completed) /
      static_cast<double>(flat_result.processes_completed);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST(ClusterSimTest, TraceScalesAffectVolume) {
  const TraceConfig small = TraceConfigForScale("small");
  const TraceConfig def = TraceConfigForScale("default");
  const TraceConfig large = TraceConfigForScale("large");
  EXPECT_LT(small.sim.num_machines, def.sim.num_machines);
  EXPECT_LT(def.sim.num_machines, large.sim.num_machines);
  EXPECT_DEATH(TraceConfigForScale("unknown"), "unknown scale");
}

TEST(ClusterSimTest, RecurringFailureShortcutAppearsInLog) {
  // The online policy starts at REBOOT for quickly-recurring failures; the
  // log must therefore contain processes whose first action is REBOOT.
  const TraceDataset dataset = GenerateTrace(TraceConfigForScale("small"));
  const auto segmented = SegmentIntoProcesses(dataset.result.log);
  std::int64_t reboot_first = 0;
  for (const RecoveryProcess& p : segmented.processes) {
    if (!p.attempts().empty() &&
        p.attempts().front().action == RepairAction::kReboot) {
      ++reboot_first;
    }
  }
  EXPECT_GT(reboot_first, 0);
  // ... but they are a small minority (the <5% divergence band that keeps
  // the Figure 7 validation tight).
  EXPECT_LT(static_cast<double>(reboot_first) /
                static_cast<double>(segmented.processes.size()),
            0.1);
}

}  // namespace
}  // namespace aer
