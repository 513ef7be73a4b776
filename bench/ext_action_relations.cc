// Extension (paper Section 7): "introducing more complicated relationships
// among actions" — and, as a special case, the ablation of hypothesis 2.
// The offline platform's cure rule depends on which executed actions may
// substitute which required ones:
//
//   total order   the paper's hypothesis 2 (stronger replaces weaker)
//   identity-only hypothesis 2 off: only the same action (or manual
//                 repair) satisfies a requirement
//
// Under identity-only the learner cannot credit a REBOOT-first policy with
// curing TRYNOP-cured incidents, so part of the savings disappears — which
// is how load-bearing hypothesis 2 is.
#include <cstdio>

#include "bench_common.h"
#include "eval/evaluator.h"

namespace aer::bench {
namespace {

struct Arm {
  std::string name;
  const CapabilityModel* model;
};

void Run() {
  Header("ext_action_relations",
         "Section 7 extension (action relationships) / hypothesis-2 ablation",
         "Trained-policy results at train fraction 0.4 under different "
         "action-substitution relations.");

  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const TrainTestSplit split = SplitByTime(dataset.clean, 0.4);

  const std::vector<Arm> arms = {
      {"total order (paper)", &CapabilityModel::TotalOrder()},
      {"identity only (no H2)", &CapabilityModel::IdentityOnly()},
  };

  std::vector<std::string> labels;
  ChartSeries rel{"relative cost", {}};
  ChartSeries cov{"coverage", {}};
  for (const Arm& arm : arms) {
    const SimulationPlatform train_platform(
        split.train, types, dataset.trace.result.log.symptoms(), 20,
        *arm.model);
    TrainerConfig trainer_config;
    trainer_config.max_sweeps = 40000;
    const QLearningTrainer trainer(train_platform, split.train,
                                   trainer_config);
    const auto output =
        SelectionTreeTrainer(trainer, SelectionTreeConfig{}).TrainAll();

    // Evaluate each arm's policy under its own relation (the relation is a
    // modelling assumption: the evaluation must be self-consistent).
    const SimulationPlatform test_platform(
        split.test, types, dataset.trace.result.log.symptoms(), 20,
        *arm.model);
    const PolicyEvaluator evaluator(test_platform);
    const EvalSummary eval =
        evaluator.EvaluateTrained(output.policy, split.test);

    labels.push_back(arm.name);
    rel.values.push_back(eval.overall_relative_cost);
    cov.values.push_back(eval.overall_coverage);
    std::printf("  %-24s relative cost %.4f, coverage %.4f\n",
                arm.name.c_str(), eval.overall_relative_cost,
                eval.overall_coverage);
  }
  Report("ext_action_relations", "relation", labels, {rel, cov});

  std::printf("\nwithout hypothesis 2 the learner can only re-order what the "
              "log already did, so the stronger-action-first savings "
              "shrink — the hypothesis carries part of the headline "
              "result.\n");
  Footer();
}

}  // namespace
}  // namespace aer::bench

int main() {
  aer::bench::Run();
  return 0;
}
