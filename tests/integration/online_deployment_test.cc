// The strongest end-to-end validation, beyond the paper's replay-based
// evaluation: deploy the offline-trained policy *online* in a fresh cluster
// simulation (new seed, new incidents) and verify it beats the user-defined
// policy on real simulated downtime — and that the closed loop
// (log -> train -> deploy -> log) holds together.
#include <gtest/gtest.h>

#include "core/policy_generator.h"
#include "core/recovery_manager.h"
#include "fleet/fleet_sim.h"
#include "fleet/trace.h"
#include "rl/policy.h"

namespace aer {
namespace {

PolicyGeneratorConfig FastGenerator() {
  PolicyGeneratorConfig config;
  config.trainer.max_sweeps = 15000;
  config.trainer.min_sweeps = 2500;
  return config;
}

TEST(OnlineDeploymentTest, HybridPolicyReducesRealDowntime) {
  // Phase 1: half a year of operations under the user-defined policy.
  TraceConfig config = TraceConfigForScale("small");
  const TraceDataset history = GenerateTrace(config);

  // Phase 2: learn a policy offline from that log.
  const PolicyGenerator generator(FastGenerator());
  const TrainedPolicy trained = generator.Generate(history.result.log);
  ASSERT_GT(trained.num_types(), 10u);

  // Phase 3: run the *next* period twice from identical initial conditions —
  // once under the user policy, once under the hybrid — and compare actual
  // downtime. New seed = new faults the policy has never seen.
  TraceConfig next = config;
  next.sim.seed = config.sim.seed + 1;

  fleet::FleetSimulator sim_user({.sim = next.sim},
                                MakeDefaultCatalog(next.catalog));
  UserDefinedPolicy user1(next.escalation);
  const SimulationResult under_user = sim_user.Run(user1);

  fleet::FleetSimulator sim_hybrid({.sim = next.sim},
                                  MakeDefaultCatalog(next.catalog));
  UserDefinedPolicy user2(next.escalation);
  HybridPolicy hybrid(trained, user2);
  const SimulationResult under_hybrid = sim_hybrid.Run(hybrid);

  ASSERT_GT(under_user.processes_completed, 500);
  ASSERT_GT(under_hybrid.processes_completed, 500);

  // Faster recovery lets the same fleet absorb more incidents within the
  // horizon and the two runs' random streams diverge after the first
  // differing decision, so total downtime is not comparable — mean downtime
  // per completed process is.
  const double mean_user =
      static_cast<double>(under_user.total_downtime) /
      static_cast<double>(under_user.processes_completed);
  const double mean_hybrid =
      static_cast<double>(under_hybrid.total_downtime) /
      static_cast<double>(under_hybrid.processes_completed);
  const double ratio = mean_hybrid / mean_user;
  // The paper's replay-based estimate promises >10% savings; online, with
  // fresh stochasticity, we accept anything clearly better than parity.
  EXPECT_LT(ratio, 0.98) << "hybrid should reduce real mean downtime";
  EXPECT_GT(ratio, 0.5);

  // Per-fault check on the two best-sampled improvable faults: the stuck
  // service (catalog rank 0) must recover much faster under the hybrid.
  const auto mean_downtime_of_fault = [](const SimulationResult& result,
                                         int fault_index) {
    double total = 0.0;
    std::int64_t count = 0;
    for (const ProcessGroundTruth& gt : result.ground_truth) {
      if (gt.fault_index != fault_index) continue;
      total += static_cast<double>(gt.end - gt.start);
      ++count;
    }
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  const double stuck_user = mean_downtime_of_fault(under_user, 0);
  const double stuck_hybrid = mean_downtime_of_fault(under_hybrid, 0);
  ASSERT_GT(stuck_user, 0.0);
  ASSERT_GT(stuck_hybrid, 0.0);
  EXPECT_LT(stuck_hybrid / stuck_user, 0.85)
      << "REBOOT-first should sharply cut the stuck-service recovery time";
}

TEST(OnlineDeploymentTest, ClosedLoopRetrainsFromManagedLog) {
  // Drive a RecoveryManager by hand for a few incidents, then feed its log
  // back into the generator: the loop must produce a policy for the type it
  // observed.
  UserDefinedPolicy user;
  RecoveryManager manager(user);

  SimTime t = 0;
  for (int incident = 0; incident < 40; ++incident) {
    const MachineId m = incident % 7;
    manager.OnSymptom(t, m, "LoopSymptom");
    manager.OnSymptom(t + 5, m, "LoopSymptom-aux");
    // TRYNOP never cures; REBOOT always does.
    auto a = manager.OnRecoveryNeeded(t + 60, m);
    ASSERT_TRUE(a.has_value());
    SimTime now = t + 60;
    while (*a != RepairAction::kReboot) {
      now += 900;
      manager.OnActionResult(now, m, false);
      a = manager.OnRecoveryNeeded(now + 60, m);
      now += 60;
      ASSERT_TRUE(a.has_value());
    }
    now += 2400;
    manager.OnActionResult(now, m, true);
    t = now + 12 * kHour;  // outside the recurring window
  }
  ASSERT_EQ(manager.stats().processes_completed, 40);

  PolicyGeneratorConfig config = FastGenerator();
  config.mining.min_support = 2;
  const PolicyGenerator generator(config);
  PolicyGenerationReport report;
  const TrainedPolicy policy = generator.Generate(manager.log(), &report);
  ASSERT_EQ(policy.num_types(), 1u);
  const auto* entry = policy.FindType("LoopSymptom");
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->sequence.empty());
  EXPECT_EQ(entry->sequence.front(), RepairAction::kReboot)
      << "the loop should learn to skip the useless watch";
}

TEST(OnlineDeploymentTest, AdaptationAfterEnvironmentChange) {
  // The paper claims the approach "can adapt to the change of the
  // environment without human involvement": retrain on a log produced by a
  // *changed* catalog (the dominant fault now needs REIMAGE instead of
  // REBOOT) and check the policy follows.
  TraceConfig before = TraceConfigForScale("small");
  before.sim.num_machines = 200;
  before.sim.duration = 60 * kDay;

  TraceConfig after = before;
  after.catalog.seed = before.catalog.seed;  // same fault identities

  // Build the changed catalog: strengthen fault 0 to an OS-corruption-like
  // response (REBOOT no longer cures).
  FaultCatalog changed = MakeDefaultCatalog(after.catalog);
  changed.faults[0].responses[static_cast<std::size_t>(
      ActionIndex(RepairAction::kReboot))] = {0.05, 2400, 0.3};
  changed.faults[0].responses[static_cast<std::size_t>(
      ActionIndex(RepairAction::kTryNop))] = {0.02, 900, 0.3};
  changed.faults[0].Validate();

  fleet::FleetSimulator sim({.sim = after.sim}, changed);
  UserDefinedPolicy user(after.escalation);
  const SimulationResult result = sim.Run(user);

  const PolicyGenerator generator(FastGenerator());
  const TrainedPolicy policy = generator.Generate(result.log);
  const auto* entry = policy.FindType(changed.faults[0].primary_symptom);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->sequence.empty());
  EXPECT_EQ(entry->sequence.front(), RepairAction::kReimage)
      << "after the environment change the policy must escalate straight to "
         "REIMAGE";
}

}  // namespace
}  // namespace aer
