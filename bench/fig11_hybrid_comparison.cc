// Figure 11: "Performance comparison between trained policy and hybrid
// policy" — per error type, the relative cost of the pure RL-trained policy
// (handled processes only) against the hybrid policy (all processes, with
// the user-defined fallback), for training fractions 0.2 (a) and 0.4 (b).
// The paper finds the two nearly identical except for sparsely-trained
// types at 20% training (its error type 23).
#include <cstdio>

#include "bench_common.h"

namespace aer::bench {
namespace {

void ReportOne(const ExperimentResult& result, const char* csv_suffix) {
  const std::size_t n = result.trained.rows.size();
  ChartSeries trained{"trained", {}};
  ChartSeries hybrid{"hybrid", {}};
  for (std::size_t t = 0; t < n; ++t) {
    trained.values.push_back(result.trained.rows[t].relative_cost);
    hybrid.values.push_back(result.hybrid.rows[t].relative_cost);
  }
  std::printf("\n--- training fraction %.1f ---\n", result.train_fraction);
  Report(std::string("fig11_hybrid_comparison_") + csv_suffix, "type",
         TypeLabels(n), {trained, hybrid});

  // Types where the hybrid diverges: sparsely-trained sequences whose test
  // split contains unseen patterns (the paper's type-23 discussion).
  std::printf("types where |hybrid - trained| > 0.1:\n");
  bool any = false;
  for (std::size_t t = 0; t < n; ++t) {
    const double delta = std::abs(result.hybrid.rows[t].relative_cost -
                                  result.trained.rows[t].relative_cost);
    if (result.trained.rows[t].handled >= 5 && delta > 0.1) {
      std::printf("  type %2zu: trained %.3f vs hybrid %.3f\n", t + 1,
                  result.trained.rows[t].relative_cost,
                  result.hybrid.rows[t].relative_cost);
      any = true;
    }
  }
  if (!any) std::printf("  (none)\n");
}

bool Run() {
  Header("fig11_hybrid_comparison", "Figure 11 (a) and (b)",
         "Trained vs hybrid relative cost per type at 20% and 40% "
         "training.");
  const auto& results = GetExperimentResults();
  ReportOne(results[0], "a_train02");
  ReportOne(results[1], "b_train04");
  std::printf("\npaper: nearly identical curves; exceptions only at 20%% "
              "training where the training set misses patterns.\n");
  Footer();
  return CheckClaim(results[0].hybrid.overall_coverage == 1.0 &&
                        results[1].hybrid.overall_coverage == 1.0,
                    "the hybrid policy covers 100% of processes at both "
                    "training fractions");
}

}  // namespace
}  // namespace aer::bench

int main() {
  return aer::bench::Run() ? 0 : 1;
}
