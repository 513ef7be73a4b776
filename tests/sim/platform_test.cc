#include "sim/platform.h"

#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "eval/evaluator.h"
#include "fleet/trace.h"
#include "mining/error_type.h"

namespace aer {
namespace {

struct Pipeline {
  TraceDataset dataset;
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog catalog;

  explicit Pipeline(TraceConfig config)
      : dataset(GenerateTrace(config)),
        processes(SegmentIntoProcesses(dataset.result.log).processes),
        catalog(processes, 40) {}
};

TraceConfig SmallTrace() {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 200;
  config.sim.duration = 60 * kDay;
  return config;
}

TEST(PlatformTest, ExactValidationWithoutHiddenState) {
  // With the recurring-failure shortcut disabled, the offline replay of the
  // user-defined policy replays the log's exact action sequences, so the
  // estimated cost equals the actual downtime for every process.
  TraceConfig config = SmallTrace();
  config.escalation.recurring_failure_window = 0;  // no hidden machine state
  Pipeline pipe(config);
  const SimulationPlatform platform(pipe.processes, pipe.catalog,
                                    pipe.dataset.result.log.symptoms());
  UserDefinedPolicy policy(config.escalation);
  for (const TypeEvalRow& row :
       PolicyEvaluator(platform).EvaluateFull(policy, pipe.processes).rows) {
    if (row.processes == 0) continue;
    EXPECT_NEAR(row.relative_cost, 1.0, 1e-9) << "type " << row.type;
  }
}

TEST(PlatformTest, ValidationWithHiddenStateIsConservativeAndTight) {
  // Figure 7: with the online policy's hidden machine history, the offline
  // replay deviates, but stays small and errs on the conservative side.
  Pipeline pipe(SmallTrace());
  const SimulationPlatform platform(pipe.processes, pipe.catalog,
                                    pipe.dataset.result.log.symptoms());
  UserDefinedPolicy policy;
  double worst = 0.0;
  for (const TypeEvalRow& row :
       PolicyEvaluator(platform).EvaluateFull(policy, pipe.processes).rows) {
    if (row.processes < 20) continue;  // skip tiny-sample types
    EXPECT_GE(row.relative_cost, 0.97) << "type " << row.type;
    worst = std::max(worst, std::abs(row.relative_cost - 1.0));
  }
  EXPECT_LT(worst, 0.08);
}

TEST(PlatformTest, ReplayPolicyEnforcesNCap) {
  Pipeline pipe(SmallTrace());
  const int cap = 4;
  const SimulationPlatform platform(pipe.processes, pipe.catalog,
                                    pipe.dataset.result.log.symptoms(), cap);

  // A policy that insists on a useless action forever.
  class StubbornPolicy final : public RecoveryPolicy {
   public:
    RepairAction ChooseAction(const RecoveryContext&) override {
      return RepairAction::kTryNop;
    }
    std::string_view name() const override { return "stubborn"; }
  } stubborn;

  // Find a process TRYNOP cannot cure.
  for (const RecoveryProcess& p : pipe.processes) {
    if (p.attempts().empty()) continue;
    if (pipe.catalog.Classify(p) == kInvalidErrorType) continue;
    if (p.final_action() == RepairAction::kTryNop) continue;
    const auto outcome = platform.ReplayPolicy(p, stubborn);
    EXPECT_EQ(outcome.steps, cap);
    EXPECT_TRUE(outcome.forced_manual);
    return;  // one is enough
  }
  FAIL() << "no suitable process found";
}

TEST(PlatformTest, ReplayCostsArePositiveAndFinite) {
  Pipeline pipe(SmallTrace());
  const SimulationPlatform platform(pipe.processes, pipe.catalog,
                                    pipe.dataset.result.log.symptoms());
  UserDefinedPolicy policy;
  int checked = 0;
  for (const RecoveryProcess& p : pipe.processes) {
    if (pipe.catalog.Classify(p) == kInvalidErrorType) continue;
    const auto outcome = platform.ReplayPolicy(p, policy);
    ASSERT_GT(outcome.cost, 0.0);
    ASSERT_GE(outcome.steps, 1);
    if (++checked >= 500) break;
  }
  EXPECT_GE(checked, 100);
}

TEST(PlatformTest, Figure7RowsCoverAllCatalogTypes) {
  Pipeline pipe(SmallTrace());
  const SimulationPlatform platform(pipe.processes, pipe.catalog,
                                    pipe.dataset.result.log.symptoms());
  UserDefinedPolicy policy;
  const std::vector<TypeEvalRow> rows =
      PolicyEvaluator(platform).EvaluateFull(policy, pipe.processes).rows;
  EXPECT_EQ(rows.size(), pipe.catalog.num_types());
  std::int64_t total = 0;
  for (const TypeEvalRow& row : rows) total += row.processes;
  // All classified processes are accounted for.
  std::int64_t classified = 0;
  for (const RecoveryProcess& p : pipe.processes) {
    if (pipe.catalog.Classify(p) != kInvalidErrorType) ++classified;
  }
  EXPECT_EQ(total, classified);
}

}  // namespace
}  // namespace aer
