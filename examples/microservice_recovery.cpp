// Domain transfer: the paper's pipeline on a *microservice* fleet instead
// of bare-metal machines. The four repair actions map onto the service
// domain's escalation ladder (the Microreboot line of work the paper cites):
//
//   TRYNOP   -> drain & retry   (wait out a transient, ~20 s)
//   REBOOT   -> microreboot     (restart the one component, ~45 s)
//   REIMAGE  -> container rebuild (fresh image + warmup, ~4 min)
//   RMA      -> page the on-call (human investigates, ~45 min)
//
// Everything else — symptom names, cure probabilities, durations, incident
// rates — comes from a hand-built FaultCatalog, demonstrating that the
// cluster substrate is fully configurable and the learner is
// substrate-agnostic. The same PolicyGenerator learns, e.g., that a
// "DeadlockedPool" incident should skip the retry and go straight to the
// microreboot.
#include <cstdio>
#include <string>

#include "cluster/user_policy.h"
#include "core/policy_generator.h"
#include "fleet/fleet_sim.h"
#include "rl/policy.h"

namespace {

using namespace aer;

// A hand-authored catalog of service incident types.
FaultCatalog ServiceCatalog() {
  struct Spec {
    const char* name;
    const char* symptom;
    std::vector<SecondarySymptom> aux;
    std::array<double, kNumActions> cure;  // retry, microreboot, rebuild, page
    double rate;
  };
  // Durations (s): retry 20, microreboot 45, rebuild 240, page 2700 — set
  // per action below; per-fault multipliers default to 1.
  const std::vector<Spec> specs = {
      {"Svc-OrderAPI-5xxBurst",
       "OrderAPI-5xxBurst",
       {{"OrderAPI-LatencySpike", 1.0}},
       {0.80, 0.95, 0.99, 1.0},  // transient: retry usually enough
       0.40},
      {"Svc-Checkout-DeadlockedPool",
       "Checkout-DeadlockedPool",
       {{"Checkout-ThreadsPinned", 1.0}, {"Checkout-QueueGrowth", 0.9}},
       {0.02, 0.92, 0.98, 1.0},  // retrying a deadlock is futile
       0.25},
      {"Svc-Search-IndexCorrupt",
       "Search-IndexCorrupt",
       {{"Search-ChecksumMismatch", 1.0}},
       {0.01, 0.05, 0.95, 1.0},  // needs the container rebuilt
       0.15},
      {"Svc-Payments-CertExpired",
       "Payments-CertExpired",
       {{"Payments-TlsHandshakeFail", 1.0}},
       {0.00, 0.01, 0.02, 1.0},  // only a human can rotate the cert
       0.05},
      {"Svc-Cart-CacheThrash",
       "Cart-CacheThrash",
       {{"Cart-EvictionStorm", 0.8}},
       {0.55, 0.85, 0.97, 1.0},
       0.15},
  };
  const double durations[kNumActions] = {20, 45, 240, 2700};

  FaultCatalog catalog;
  for (const Spec& spec : specs) {
    FaultType f;
    f.name = std::string(spec.name) + "-transient";  // tag for ArchetypeOf
    f.primary_symptom = spec.symptom;
    f.secondary_symptoms = spec.aux;
    for (int a = 0; a < kNumActions; ++a) {
      f.responses[static_cast<std::size_t>(a)] = {
          spec.cure[static_cast<std::size_t>(a)],
          durations[a],
          0.35};
    }
    f.relative_rate = spec.rate;
    catalog.faults.push_back(std::move(f));
  }
  catalog.generic_symptoms = {{"Mesh-RetryStorm", 0.01}};
  catalog.Validate();
  return catalog;
}

std::string SequenceOf(const TrainedPolicy& policy,
                       const std::string& symptom) {
  const auto* entry = policy.FindType(symptom);
  if (entry == nullptr) return "(not learned)";
  std::string out;
  for (RepairAction a : entry->sequence) {
    out += std::string(ActionName(a)) + " ";
  }
  return out;
}

}  // namespace

int main() {
  // Incidents arrive much faster than machine faults: 500 service replicas,
  // one incident per replica every ~2 days, two weeks of history.
  ClusterSimConfig sim;
  sim.num_machines = 500;  // replicas
  sim.duration = 14 * kDay;
  sim.machine_mtbf_days = 2.0;
  sim.mean_detection_delay_s = 15.0;  // alerting is fast in service land
  sim.min_decision_gap_s = 2;
  sim.max_decision_gap_s = 10;
  sim.seed = 4242;

  // The hand-written runbook: retry once, microreboot twice, rebuild twice,
  // then page.
  EscalationConfig runbook;
  runbook.max_tries = {1, 2, 2, 1000};
  runbook.recurring_failure_window = kHour;

  const FaultCatalog catalog = ServiceCatalog();
  fleet::FleetSimulator simulator({.sim = sim}, catalog);
  UserDefinedPolicy runbook_policy(runbook);
  const SimulationResult history = simulator.Run(runbook_policy);
  std::printf("two weeks of incidents under the runbook: %lld incidents, "
              "%.1f s mean time to recover\n",
              static_cast<long long>(history.processes_completed),
              static_cast<double>(history.total_downtime) /
                  static_cast<double>(history.processes_completed));

  // Learn from the incident log. Smaller N: paging twice is nonsense.
  PolicyGeneratorConfig config;
  config.trainer.max_actions = 8;
  config.max_types = 10;
  const PolicyGenerator generator(config);
  PolicyGenerationReport report;
  const TrainedPolicy learned = generator.Generate(history.log, &report);

  std::printf("\nlearned runbook (%zu incident types):\n",
              learned.num_types());
  for (const auto& spec :
       {"OrderAPI-5xxBurst", "Checkout-DeadlockedPool", "Search-IndexCorrupt",
        "Payments-CertExpired", "Cart-CacheThrash"}) {
    std::printf("  %-26s -> %s\n", spec, SequenceOf(learned, spec).c_str());
  }

  // Deploy for the next two weeks, A/B against the runbook.
  ClusterSimConfig next = sim;
  next.seed = sim.seed + 1;
  fleet::FleetSimulator sim_a({.sim = next}, catalog);
  UserDefinedPolicy arm_a(runbook);
  const SimulationResult a = sim_a.Run(arm_a);
  fleet::FleetSimulator sim_b({.sim = next}, catalog);
  UserDefinedPolicy fallback(runbook);
  HybridPolicy arm_b(learned, fallback);
  const SimulationResult b = sim_b.Run(arm_b);

  const double mean_a = static_cast<double>(a.total_downtime) /
                        static_cast<double>(a.processes_completed);
  const double mean_b = static_cast<double>(b.total_downtime) /
                        static_cast<double>(b.processes_completed);
  std::printf("\nnext two weeks, online A/B:\n");
  std::printf("  runbook: %.1f s mean recovery\n", mean_a);
  std::printf("  learned: %.1f s mean recovery (%.1f%% of runbook)\n",
              mean_b, 100.0 * mean_b / mean_a);
  std::printf("\nthe learner found the runbook's blind spots (deadlocks and "
              "index corruption don't deserve a retry) without being told "
              "anything about services.\n");
  return 0;
}
