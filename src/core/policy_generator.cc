#include "core/policy_generator.h"

#include "common/check.h"

namespace aer {

PolicyGenerator::PolicyGenerator(PolicyGeneratorConfig config)
    : config_(std::move(config)) {}

TrainedPolicy PolicyGenerator::Generate(const RecoveryLog& log,
                                        PolicyGenerationReport* report) const {
  // 1. Segment the log into recovery processes.
  SegmentationResult segmented = SegmentIntoProcesses(log);
  AER_CHECK(!segmented.processes.empty());
  const std::size_t total = segmented.processes.size();

  // 2. Cluster symptoms and drop noisy (multi-error) processes.
  const SymptomClustering clustering(segmented.processes, config_.mining);
  const std::vector<RecoveryProcess> clean =
      KeepCohesive(std::move(segmented.processes), clustering);
  AER_CHECK(!clean.empty());

  // 3. Induce error types from initial symptoms; keep the frequent ones.
  const ErrorTypeCatalog types(clean, config_.max_types);

  // 4. Train per-type policies on the simulation platform.
  const SimulationPlatform platform(clean, types, log.symptoms(),
                                    config_.trainer.max_actions);
  const QLearningTrainer trainer(platform, clean, config_.trainer);
  QLearningTrainer::TrainingOutput output =
      config_.use_selection_tree
          ? SelectionTreeTrainer(trainer, config_.tree).TrainAll()
          : trainer.TrainAll();

  if (report != nullptr) {
    report->total_processes = total;
    report->clean_processes = clean.size();
    report->noisy_processes = total - clean.size();
    report->symptom_clusters = clustering.clusters().size();
    report->error_types = types.num_types();
    report->type_coverage = types.coverage();
    report->training = std::move(output.per_type);
  }
  return std::move(output.policy);
}

}  // namespace aer
