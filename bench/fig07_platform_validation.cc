// Figure 7: "Relative cost for 40 most frequent errors compared to real
// ones" — validation of the simulation platform: replay the user-defined
// policy on the log it produced and compare the estimated cost against the
// actual downtime, per error type. The paper's biggest deviation is below
// 5%, conservative (ratio >= 1) for all but one type.
#include <cstdio>

#include "bench_common.h"
#include "cluster/user_policy.h"
#include "eval/evaluator.h"
#include "mining/error_type.h"
#include "sim/platform.h"

namespace aer::bench {
namespace {

bool Run() {
  Header("fig07_platform_validation", "Figure 7 (and Section 4.2)",
         "Estimated / actual cost per type when replaying the user-defined "
         "policy on its own log.");

  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const SimulationPlatform platform(dataset.clean, types,
                                    dataset.trace.result.log.symptoms());
  UserDefinedPolicy policy;
  const std::vector<TypeEvalRow> rows =
      PolicyEvaluator(platform).EvaluateFull(policy, dataset.clean).rows;

  ChartSeries ratio{"est/actual", {}};
  std::vector<std::string> labels;
  double worst = 0.0;
  int below_one = 0;
  for (const TypeEvalRow& row : rows) {
    labels.push_back(StrFormat("%2d", row.type + 1));
    ratio.values.push_back(row.relative_cost);
    if (row.processes == 0) continue;
    worst = std::max(worst, std::abs(row.relative_cost - 1.0));
    if (row.relative_cost < 1.0) ++below_one;
  }
  Report("fig07_platform_validation", "type", labels, {ratio});

  std::printf("paper: biggest deviation < 5%%; only one type slightly below "
              "1.0 (conservative evaluation).\n");
  std::printf("ours:  biggest deviation = %.2f%%; %d of %zu types below "
              "1.0.\n",
              100.0 * worst, below_one, rows.size());
  Footer();
  return CheckClaim(worst < 0.05, "the biggest deviation is below 5%");
}

}  // namespace
}  // namespace aer::bench

int main() {
  return aer::bench::Run() ? 0 : 1;
}
