// Figure 10: "Coverage of the trained policy" — per error type, the
// fraction of held-out processes the trained policy can finish on its own
// (its learned action sequence cures them). The paper reports coverage
// above 90% even for the affected types, improving with training data.
#include <cstdio>

#include "bench_common.h"

namespace aer::bench {
namespace {

bool Run() {
  Header("fig10_coverage", "Figure 10",
         "Trained-policy coverage per error type, training fractions "
         "0.2/0.4/0.6/0.8.");

  const auto& results = GetExperimentResults();
  const std::size_t n = results.front().trained.rows.size();

  std::vector<ChartSeries> series;
  for (const ExperimentResult& r : results) {
    ChartSeries s{StrFormat("%.1f", r.train_fraction), {}};
    for (const TypeEvalRow& row : r.trained.rows) {
      s.values.push_back(row.coverage);
    }
    series.push_back(std::move(s));
  }
  Report("fig10_coverage", "type", TypeLabels(n), series);

  bool above_90 = true;
  for (const ExperimentResult& r : results) {
    above_90 = above_90 && r.trained.overall_coverage > 0.90;
    std::int64_t uncovered_types = 0;
    for (const TypeEvalRow& row : r.trained.rows) {
      if (row.processes > 0 && row.coverage < 1.0) ++uncovered_types;
    }
    std::printf("train %.0f%%: overall coverage %.2f%%, %lld of %zu types "
                "below full coverage\n",
                100.0 * r.train_fraction,
                100.0 * r.trained.overall_coverage,
                static_cast<long long>(uncovered_types),
                r.trained.rows.size());
  }
  std::printf("paper: coverage > 90%% everywhere; unhandled cases shrink as "
              "training data grows.\n");
  Footer();
  return CheckClaim(above_90,
                    "overall coverage is above 90% at every training "
                    "fraction");
}

}  // namespace
}  // namespace aer::bench

int main() {
  return aer::bench::Run() ? 0 : 1;
}
