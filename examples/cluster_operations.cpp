// Cluster operations scenario: a fleet operator runs six months under the
// hand-written escalation policy, learns a policy from the accumulated
// recovery log, and A/B-tests it online over the *next* period — the
// workload the paper's introduction motivates (thousands of servers, faults
// cured by rebooting/reimaging without ever finding root causes).
//
// Demonstrates: FleetSimulator as a production stand-in, PolicyGenerator,
// HybridPolicy deployment, and honest online measurement (mean downtime per
// incident, not replay estimates).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "core/policy_generator.h"
#include "fleet/fleet_sim.h"
#include "fleet/trace.h"
#include "rl/policy.h"

namespace {

struct PeriodStats {
  double mean_downtime_s = 0.0;
  std::int64_t incidents = 0;
  std::map<std::string, std::pair<double, std::int64_t>> by_fault;
};

PeriodStats Summarize(const aer::SimulationResult& result,
                      const aer::FaultCatalog& catalog) {
  PeriodStats stats;
  double total = 0.0;
  for (const aer::ProcessGroundTruth& gt : result.ground_truth) {
    const double downtime = static_cast<double>(gt.end - gt.start);
    total += downtime;
    ++stats.incidents;
    auto& [sum, count] =
        stats.by_fault[catalog.faults[static_cast<std::size_t>(
                                          gt.fault_index)]
                           .name];
    sum += downtime;
    ++count;
  }
  stats.mean_downtime_s =
      stats.incidents > 0 ? total / static_cast<double>(stats.incidents) : 0;
  return stats;
}

}  // namespace

int main() {
  // ---- Period 1: operate under the hand-written policy -------------------
  aer::TraceConfig config = aer::TraceConfigForScale("small");
  config.sim.num_machines = 600;
  std::printf("Period 1: %d machines, %lld days, user-defined escalation "
              "policy...\n",
              config.sim.num_machines,
              static_cast<long long>(config.sim.duration / aer::kDay));
  const aer::TraceDataset period1 = aer::GenerateTrace(config);
  std::printf("  %lld incidents, %.1f hours mean downtime\n",
              static_cast<long long>(period1.result.processes_completed),
              static_cast<double>(period1.result.total_downtime) /
                  static_cast<double>(period1.result.processes_completed) /
                  3600.0);

  // ---- Learn from period 1's log ------------------------------------------
  std::printf("\nLearning a recovery policy from period 1's log...\n");
  aer::PolicyGenerator generator;
  aer::PolicyGenerationReport report;
  const aer::TrainedPolicy trained =
      generator.Generate(period1.result.log, &report);
  std::printf("  %zu error types, %zu symptom clusters, %.2f%% of processes "
              "kept\n",
              report.error_types, report.symptom_clusters,
              100.0 * static_cast<double>(report.clean_processes) /
                  static_cast<double>(report.total_processes));

  // ---- Period 2: A/B the next six months ----------------------------------
  aer::TraceConfig period2 = config;
  period2.sim.seed = config.sim.seed + 1000;  // new faults, same environment

  std::printf("\nPeriod 2 (same fleet, fresh incidents), arm A: "
              "user-defined policy\n");
  const aer::FaultCatalog catalog = aer::MakeDefaultCatalog(period2.catalog);
  aer::fleet::FleetSimulator sim_a({.sim = period2.sim}, catalog);
  aer::UserDefinedPolicy user_a(period2.escalation);
  const aer::SimulationResult arm_a = sim_a.Run(user_a);
  const PeriodStats stats_a = Summarize(arm_a, catalog);

  std::printf("Period 2, arm B: hybrid (RL-trained + fallback)\n");
  aer::fleet::FleetSimulator sim_b({.sim = period2.sim}, catalog);
  aer::UserDefinedPolicy user_b(period2.escalation);
  aer::HybridPolicy hybrid(trained, user_b);
  const aer::SimulationResult arm_b = sim_b.Run(hybrid);
  const PeriodStats stats_b = Summarize(arm_b, catalog);

  std::printf("\n  %-12s %14s %14s\n", "", "arm A (user)", "arm B (hybrid)");
  std::printf("  %-12s %14lld %14lld\n", "incidents",
              static_cast<long long>(stats_a.incidents),
              static_cast<long long>(stats_b.incidents));
  std::printf("  %-12s %13.1fs %13.1fs\n", "mean MTTR",
              stats_a.mean_downtime_s, stats_b.mean_downtime_s);
  std::printf("  => hybrid mean downtime is %.1f%% of the user-defined "
              "policy's\n",
              100.0 * stats_b.mean_downtime_s / stats_a.mean_downtime_s);

  // Per-fault drill-down for the five biggest movers with decent samples.
  std::printf("\n  biggest per-fault improvements (>= 20 incidents in both "
              "arms):\n");
  std::vector<std::pair<double, std::string>> movers;
  for (const auto& [fault, sum_count] : stats_a.by_fault) {
    const auto it = stats_b.by_fault.find(fault);
    if (it == stats_b.by_fault.end()) continue;
    const auto& [sum_a, n_a] = sum_count;
    const auto& [sum_b, n_b] = it->second;
    if (n_a < 20 || n_b < 20) continue;
    const double ratio = (sum_b / static_cast<double>(n_b)) /
                         (sum_a / static_cast<double>(n_a));
    movers.push_back({ratio, fault});
  }
  std::sort(movers.begin(), movers.end());
  for (std::size_t i = 0; i < movers.size() && i < 5; ++i) {
    std::printf("    %-24s mean downtime ratio %.2f\n",
                movers[i].second.c_str(), movers[i].first);
  }
  return 0;
}
