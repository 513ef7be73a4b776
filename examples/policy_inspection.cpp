// Policy inspection: a diagnostician's view of what the learner actually
// decided and why. For the most frequent error types this prints
//   - the user-defined policy's action sequence,
//   - the learned sequence and where it deviates,
//   - the Q values at the root state,
//   - the selection tree's candidate sequences and their exact evaluations,
//   - the exhaustive-search optimum as a reference.
//
// Useful when deciding whether to trust a generated policy before
// deployment — the paper's Section 5.1 analysis ("the trained policy will
// try a stronger repair action at the beginning") done mechanically.
#include <cstdio>
#include <string>

#include "eval/split.h"
#include "fleet/trace.h"
#include "mining/symptom_clusters.h"
#include "rl/selection_tree.h"

namespace {

std::string SequenceString(const aer::ActionSequence& sequence) {
  std::string out;
  for (aer::RepairAction a : sequence) {
    out += std::string(aer::ActionName(a)) + " ";
  }
  return out.empty() ? "(empty)" : out;
}

}  // namespace

int main() {
  // Data + pipeline front end.
  const aer::TraceDataset dataset =
      aer::GenerateTrace(aer::TraceConfigForScale("small"));
  auto segmented = aer::SegmentIntoProcesses(dataset.result.log);
  aer::MPatternConfig mining;
  const aer::SymptomClustering clustering(segmented.processes, mining);
  const std::vector<aer::RecoveryProcess> clean =
      aer::KeepCohesive(std::move(segmented.processes), clustering);

  const aer::ErrorTypeCatalog types(clean, 40);
  const aer::SimulationPlatform platform(clean, types,
                                         dataset.result.log.symptoms());
  aer::TrainerConfig trainer_config;
  trainer_config.max_sweeps = 40000;
  const aer::QLearningTrainer trainer(platform, clean, trainer_config);
  const aer::SelectionTreeConfig tree_config;
  const aer::SelectionTreeTrainer tree(trainer, tree_config);

  // What would the user-defined policy do? (Its escalation sequence is the
  // same for every type.)
  aer::UserDefinedPolicy user;
  std::printf("user-defined escalation (all types): ");
  {
    std::vector<aer::RepairAction> tried;
    for (int i = 0; i < 6; ++i) {
      aer::RecoveryContext ctx;
      ctx.tried = tried;
      const aer::RepairAction a = user.ChooseAction(ctx);
      std::printf("%s ", std::string(aer::ActionName(a)).c_str());
      tried.push_back(a);
    }
    std::printf("...\n\n");
  }

  for (aer::ErrorTypeId type = 0; type < 8; ++type) {
    const auto processes = trainer.processes_of(type);
    if (processes.empty()) continue;
    const std::string& name =
        dataset.result.log.symptoms().Name(types.symptom_of(type));

    aer::QTable table;
    const aer::TypeTrainingResult result = tree.TrainType(type, &table);

    std::printf("== type %d: %s (%zu training processes) ==\n", type + 1,
                name.c_str(), processes.size());
    std::printf("  learned:   %s (converged at sweep %lld)\n",
                SequenceString(result.sequence).c_str(),
                static_cast<long long>(result.sweeps));

    // Root-state Q values.
    const aer::StateKey root = aer::EncodeState(type, {});
    std::printf("  Q(root):   ");
    for (aer::RepairAction a : aer::kAllActions) {
      if (!table.Has(root, a)) continue;
      std::printf("%s=%.0f(%lldx) ", std::string(aer::ActionName(a)).c_str(),
                  table.Q(root, a),
                  static_cast<long long>(table.Visits(root, a)));
    }
    std::printf("\n");

    // Selection-tree candidates with their exact evaluations.
    const auto candidates = aer::BuildCandidateSequences(
        table, type, trainer_config.max_actions, tree_config);
    std::printf("  tree candidates:\n");
    for (std::size_t c = 0; c < candidates.size() && c < 4; ++c) {
      const auto eval = aer::EvaluateSequence(
          candidates[c], processes, type, platform.estimator(),
          trainer_config.max_actions);
      std::printf("    %-36s mean cost %.0f s, cures %lld/%lld\n",
                  SequenceString(candidates[c]).c_str(), eval.mean_cost,
                  static_cast<long long>(eval.cured_by_sequence),
                  static_cast<long long>(eval.processes));
    }

    // Exhaustive reference (small search space: observed actions only).
    const aer::ActionSequence exact = aer::ExactBestSequence(
        processes, type, platform.estimator(), trainer_config.max_actions);
    const auto exact_eval = aer::EvaluateSequence(
        exact, processes, type, platform.estimator(),
        trainer_config.max_actions);
    const auto learned_eval = aer::EvaluateSequence(
        result.sequence, processes, type, platform.estimator(),
        trainer_config.max_actions);
    std::printf("  exhaustive optimum: %s (mean %.0f s; learned policy "
                "mean %.0f s)\n\n",
                SequenceString(exact).c_str(), exact_eval.mean_cost,
                learned_eval.mean_cost);
  }
  return 0;
}
