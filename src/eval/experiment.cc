#include "eval/experiment.h"

#include "common/check.h"

namespace aer {

ExperimentRunner::ExperimentRunner(
    std::span<const RecoveryProcess> clean_processes,
    const SymptomTable& symptoms, ExperimentConfig config)
    : clean_(clean_processes),
      symptoms_(symptoms),
      config_(std::move(config)),
      types_(clean_processes, config_.max_types) {
  AER_CHECK(!clean_.empty());
}

ExperimentResult ExperimentRunner::RunOne(double train_fraction,
                                          ThreadPool* pool) const {
  ExperimentResult result;
  result.train_fraction = train_fraction;

  const TrainTestSplit split = SplitByTime(clean_, train_fraction);
  result.train_processes = static_cast<std::int64_t>(split.train.size());
  result.test_processes = static_cast<std::int64_t>(split.test.size());

  // Train on the early portion: cost statistics, exploration and policy
  // generation all come from the training split only.
  const SimulationPlatform train_platform(split.train, types_, symptoms_,
                                          config_.trainer.max_actions);
  const QLearningTrainer trainer(train_platform, split.train, config_.trainer);
  QLearningTrainer::TrainingOutput output =
      config_.use_selection_tree
          ? SelectionTreeTrainer(trainer, config_.tree).TrainAll(pool)
          : trainer.TrainAll(pool);
  result.training = std::move(output.per_type);
  result.policy = std::move(output.policy);

  // Evaluate on the remaining log, priced from the test split's statistics.
  const SimulationPlatform test_platform(split.test, types_, symptoms_,
                                         config_.trainer.max_actions);
  const PolicyEvaluator evaluator(test_platform);
  result.trained = evaluator.EvaluateTrained(result.policy, split.test);

  UserDefinedPolicy user(config_.user_policy);
  HybridPolicy hybrid(result.policy, user);
  result.hybrid = evaluator.EvaluateFull(hybrid, split.test);

  return result;
}

std::vector<ExperimentResult> ExperimentRunner::RunAll(
    ThreadPool* pool) const {
  std::vector<ExperimentResult> results;
  results.reserve(config_.train_fractions.size());
  // Replications stay in submission order; each one fans its ~40 per-type
  // training shards out over the pool, which keeps every worker busy
  // without nesting replication-level parallelism on top.
  for (double fraction : config_.train_fractions) {
    results.push_back(RunOne(fraction, pool));
  }
  return results;
}

}  // namespace aer
