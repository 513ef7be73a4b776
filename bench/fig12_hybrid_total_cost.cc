// Figure 12: "Total time cost of hybrid approach under different tests" —
// total downtime of the user-defined policy vs the hybrid policy on each
// test's full held-out log (the hybrid handles everything). The paper's
// hybrid keeps the >10% savings; 89.18% of the original at 40% training.
#include <cstdio>

#include "bench_common.h"
#include "eval/bootstrap.h"

namespace aer::bench {
namespace {

bool Run() {
  Header("fig12_hybrid_total_cost", "Figure 12",
         "Total downtime, user-defined vs hybrid, tests 1-4 (all "
         "processes).");

  const auto& results = GetExperimentResults();
  std::vector<std::string> labels;
  ChartSeries user{"user-defined", {}};
  ChartSeries hybrid{"hybrid", {}};
  for (std::size_t i = 0; i < results.size(); ++i) {
    labels.push_back(StrFormat("test %zu", i + 1));
    user.values.push_back(results[i].hybrid.total_actual_cost / 1e6);
    hybrid.values.push_back(results[i].hybrid.total_policy_cost / 1e6);
  }
  Report("fig12_hybrid_total_cost", "test (Msec)", labels, {user, hybrid});

  std::vector<double> relative_costs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    relative_costs.push_back(results[i].hybrid.overall_relative_cost);
    const BootstrapInterval ci = BootstrapRatioCI(results[i].hybrid.samples);
    std::printf("test %zu (train %.0f%%): hybrid costs %.2f%% of the "
                "user-defined policy (95%% CI %.2f-%.2f%%, coverage "
                "%.1f%%)\n",
                i + 1, 100.0 * results[i].train_fraction,
                100.0 * results[i].hybrid.overall_relative_cost,
                100.0 * ci.low, 100.0 * ci.high,
                100.0 * results[i].hybrid.overall_coverage);
  }
  std::printf("paper: >10%% average improvement; 89.18%% at 40%% training, "
              "with guaranteed full coverage.\n");
  Footer();
  return CheckSavingsClaim(relative_costs);
}

}  // namespace
}  // namespace aer::bench

int main() {
  return aer::bench::Run() ? 0 : 1;
}
