// Adaptive recovery: the paper's claim that a learning-based policy "can
// adapt to the change of the environment without human involvement".
//
// Timeline:
//   period 1: normal environment; learn policy P1 from the log.
//   period 2: the environment shifts — a software update corrupts the most
//             frequent fault's recovery behaviour so REBOOT stops working
//             (it now needs REIMAGE). Deploying the stale P1 hurts exactly
//             this type; the closed loop retrains on the new log and the
//             refreshed policy P2 picks REIMAGE straight away.
#include <cstdio>
#include <string>

#include "core/policy_generator.h"
#include "fleet/fleet_sim.h"
#include "fleet/trace.h"
#include "rl/policy.h"

namespace {

std::string SequenceOf(const aer::TrainedPolicy& policy,
                       const std::string& symptom) {
  const auto* entry = policy.FindType(symptom);
  if (entry == nullptr) return "(type unknown)";
  std::string out;
  for (aer::RepairAction a : entry->sequence) {
    out += std::string(aer::ActionName(a)) + " ";
  }
  return out;
}

double MeanDowntimeOfFault(const aer::SimulationResult& result,
                           int fault_index) {
  double total = 0.0;
  std::int64_t count = 0;
  for (const aer::ProcessGroundTruth& gt : result.ground_truth) {
    if (gt.fault_index != fault_index) continue;
    total += static_cast<double>(gt.end - gt.start);
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace

int main() {
  aer::TraceConfig config = aer::TraceConfigForScale("small");
  const std::string fault0 =
      aer::MakeDefaultCatalog(config.catalog).faults[0].primary_symptom;

  // ---- Period 1: normal environment ---------------------------------------
  std::printf("Period 1: normal environment\n");
  const aer::TraceDataset period1 = aer::GenerateTrace(config);
  aer::PolicyGenerator generator;
  const aer::TrainedPolicy p1 = generator.Generate(period1.result.log);
  std::printf("  learned rule for %s: %s\n", fault0.c_str(),
              SequenceOf(p1, fault0).c_str());

  // ---- Environment change --------------------------------------------------
  // The stuck-service fault now resists REBOOT (e.g. the hang corrupts
  // on-disk state); only REIMAGE cures it.
  aer::FaultCatalog changed = aer::MakeDefaultCatalog(config.catalog);
  changed.faults[0]
      .responses[static_cast<std::size_t>(
          aer::ActionIndex(aer::RepairAction::kReboot))]
      .cure_probability = 0.05;
  changed.faults[0].Validate();
  std::printf("\nEnvironment change: REBOOT no longer cures %s "
              "(cure probability 0.90 -> 0.05)\n",
              fault0.c_str());

  // ---- Period 2 under the STALE policy ------------------------------------
  aer::ClusterSimConfig period2 = config.sim;
  period2.seed = config.sim.seed + 77;
  {
    aer::fleet::FleetSimulator sim({.sim = period2}, changed);
    aer::UserDefinedPolicy fallback(config.escalation);
    aer::HybridPolicy stale(p1, fallback);
    const aer::SimulationResult result = sim.Run(stale);
    std::printf("\nPeriod 2 under the stale policy:\n");
    std::printf("  mean downtime of the changed fault: %.0f s "
                "(the stale REBOOT-first rule retries in vain)\n",
                MeanDowntimeOfFault(result, 0));

    // ---- Closed loop: retrain on the new log, no human in the loop --------
    const aer::TrainedPolicy p2 = generator.Generate(result.log);
    std::printf("\nRetrained from period 2's log:\n");
    std::printf("  refreshed rule for %s: %s\n", fault0.c_str(),
                SequenceOf(p2, fault0).c_str());

    // ---- Period 3 under the refreshed policy -------------------------------
    aer::ClusterSimConfig period3 = config.sim;
    period3.seed = config.sim.seed + 154;
    aer::fleet::FleetSimulator sim3({.sim = period3}, changed);
    aer::UserDefinedPolicy fallback3(config.escalation);
    aer::HybridPolicy refreshed(p2, fallback3);
    const aer::SimulationResult result3 = sim3.Run(refreshed);

    // Baseline for period 3: the stale policy on identical conditions.
    aer::fleet::FleetSimulator sim3_stale({.sim = period3},
                                          changed);
    aer::UserDefinedPolicy fallback3s(config.escalation);
    aer::HybridPolicy stale3(p1, fallback3s);
    const aer::SimulationResult result3_stale =
        sim3_stale.Run(stale3);

    const double fresh = MeanDowntimeOfFault(result3, 0);
    const double old = MeanDowntimeOfFault(result3_stale, 0);
    std::printf("\nPeriod 3 (same incidents, both policies):\n");
    std::printf("  stale policy:     %.0f s mean downtime for the changed "
                "fault\n", old);
    std::printf("  refreshed policy: %.0f s mean downtime (%.0f%% of "
                "stale)\n", fresh, 100.0 * fresh / old);
    std::printf("\nThe loop adapted to the environment change without human "
                "involvement.\n");
  }
  return 0;
}
