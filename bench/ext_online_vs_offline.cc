// Extension: measuring the paper's Section 2.3.1 argument for *offline*
// training. Three arms run the same six-month period online:
//   A. the user-defined policy (status quo),
//   B. the hybrid policy trained offline from a *previous* period's log,
//   C. an online Q-learner starting from scratch, exploring in production.
// Reported per month: mean downtime per incident. The online learner pays
// real downtime for its exploration (REIMAGE/RMA trials on machines a
// REBOOT would have fixed) — the cost the offline method only simulates.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/policy_generator.h"
#include "fleet/fleet_sim.h"
#include "rl/online_policy.h"

namespace aer::bench {
namespace {

// Mean downtime per incident in each 30-day bucket of the horizon.
std::vector<double> MonthlyMeans(const SimulationResult& result,
                                 SimTime horizon) {
  const int months = static_cast<int>(horizon / (30 * kDay)) + 1;
  std::vector<double> total(static_cast<std::size_t>(months), 0.0);
  std::vector<std::int64_t> count(static_cast<std::size_t>(months), 0);
  for (const ProcessGroundTruth& gt : result.ground_truth) {
    const int month =
        std::min(months - 1, static_cast<int>(gt.start / (30 * kDay)));
    total[static_cast<std::size_t>(month)] +=
        static_cast<double>(gt.end - gt.start);
    ++count[static_cast<std::size_t>(month)];
  }
  std::vector<double> means;
  for (int m = 0; m < months; ++m) {
    if (count[static_cast<std::size_t>(m)] < 10) continue;
    means.push_back(total[static_cast<std::size_t>(m)] /
                    static_cast<double>(count[static_cast<std::size_t>(m)]));
  }
  return means;
}

void Run() {
  Header("ext_online_vs_offline", "Section 2.3.1 (why offline training)",
         "Monthly mean downtime per incident: user policy vs offline-trained "
         "hybrid vs online learner exploring in production.");

  // History period for the offline arm.
  TraceConfig config = GetDataset().config;
  const PolicyGenerator generator;
  const TrainedPolicy trained =
      generator.Generate(GetDataset().trace.result.log);

  TraceConfig next = config;
  next.sim.seed = config.sim.seed + 31337;
  const FaultCatalog catalog = MakeDefaultCatalog(next.catalog);

  // No pool: the online learner updates its Q-table from OnActionOutcome,
  // so it needs deterministic, single-threaded callbacks.
  const fleet::FleetSimConfig sim_config{.sim = next.sim};
  UserDefinedPolicy user_arm(next.escalation);
  const SimulationResult under_user =
      fleet::FleetSimulator(sim_config, catalog).Run(user_arm);

  UserDefinedPolicy fallback(next.escalation);
  HybridPolicy hybrid(trained, fallback);
  const SimulationResult under_hybrid =
      fleet::FleetSimulator(sim_config, catalog).Run(hybrid);

  OnlineQLearningPolicy online;
  const SimulationResult under_online =
      fleet::FleetSimulator(sim_config, catalog).Run(online);

  const auto user_m = MonthlyMeans(under_user, next.sim.duration);
  const auto hybrid_m = MonthlyMeans(under_hybrid, next.sim.duration);
  const auto online_m = MonthlyMeans(under_online, next.sim.duration);
  const std::size_t months =
      std::min({user_m.size(), hybrid_m.size(), online_m.size()});

  std::vector<std::string> labels;
  ChartSeries user_s{"user", {}};
  ChartSeries hybrid_s{"offline hybrid", {}};
  ChartSeries online_s{"online learner", {}};
  for (std::size_t m = 0; m < months; ++m) {
    labels.push_back(StrFormat("month %zu", m + 1));
    user_s.values.push_back(user_m[m]);
    hybrid_s.values.push_back(hybrid_m[m]);
    online_s.values.push_back(online_m[m]);
  }
  Report("ext_online_vs_offline", "period (mean s/incident)", labels,
         {user_s, hybrid_s, online_s});

  const auto mean_of = [](const SimulationResult& r) {
    return static_cast<double>(r.total_downtime) /
           static_cast<double>(r.processes_completed);
  };
  std::printf("whole-period mean downtime per incident:\n");
  std::printf("  user            %.0f s\n", mean_of(under_user));
  std::printf("  offline hybrid  %.0f s (%.1f%% of user)\n",
              mean_of(under_hybrid),
              100.0 * mean_of(under_hybrid) / mean_of(under_user));
  std::printf("  online learner  %.0f s (%.1f%% of user), "
              "%zu error types discovered\n",
              mean_of(under_online),
              100.0 * mean_of(under_online) / mean_of(under_user),
              online.types_seen());
  std::printf("\nthe online learner's first months carry its exploration "
              "cost on live machines — the paper's case for learning "
              "offline from the log.\n");
  Footer();
}

}  // namespace
}  // namespace aer::bench

int main() {
  aer::bench::Run();
  return 0;
}
