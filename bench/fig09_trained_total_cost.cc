// Figure 9: "Total time cost of trained policy under different tests" —
// total downtime (millions of seconds) of the user-defined policy vs the
// trained policy on each test's held-out log, counting only the processes
// the trained policy handles (the paper's accounting). The paper's trained
// policy saves >10% in all four tests; test 2 (40% training) reaches 89.02%.
#include <cstdio>

#include "bench_common.h"
#include "eval/bootstrap.h"

namespace aer::bench {
namespace {

bool Run() {
  Header("fig09_trained_total_cost", "Figure 9",
         "Total downtime, user-defined vs trained, tests 1-4 (handled "
         "processes only).");

  const auto& results = GetExperimentResults();
  std::vector<std::string> labels;
  ChartSeries user{"user-defined", {}};
  ChartSeries trained{"trained", {}};
  for (std::size_t i = 0; i < results.size(); ++i) {
    labels.push_back(StrFormat("test %zu", i + 1));
    user.values.push_back(results[i].trained.total_actual_cost / 1e6);
    trained.values.push_back(results[i].trained.total_policy_cost / 1e6);
  }
  Report("fig09_trained_total_cost", "test (Msec)", labels, {user, trained});

  std::vector<double> relative_costs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    relative_costs.push_back(results[i].trained.overall_relative_cost);
    const BootstrapInterval ci =
        BootstrapRatioCI(results[i].trained.samples);
    std::printf("test %zu (train %.0f%%): trained policy costs %.2f%% of the "
                "user-defined policy (95%% CI %.2f-%.2f%%)\n",
                i + 1, 100.0 * results[i].train_fraction,
                100.0 * results[i].trained.overall_relative_cost,
                100.0 * ci.low, 100.0 * ci.high);
  }
  std::printf("paper: >10%% savings in all four tests; 89.02%% at 40%% "
              "training.\n");
  Footer();
  return CheckSavingsClaim(relative_costs);
}

}  // namespace
}  // namespace aer::bench

int main() {
  return aer::bench::Run() ? 0 : 1;
}
