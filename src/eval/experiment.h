// The paper's end-to-end experiments (Section 5): split the noise-filtered
// log by time at 20/40/60/80% (tests 1-4), train a policy on each training
// portion, evaluate the trained and hybrid policies on the remaining log.
//
// The error-type catalog (the "40 most frequent error types", Section 4.1)
// is built once over the whole clean log, so type indices — the x axis of
// Figures 5-14 — are identical across the four tests.
#ifndef AER_EVAL_EXPERIMENT_H_
#define AER_EVAL_EXPERIMENT_H_

#include "cluster/user_policy.h"
#include "eval/evaluator.h"
#include "eval/split.h"
#include "rl/selection_tree.h"

namespace aer {

struct ExperimentConfig {
  std::vector<double> train_fractions = {0.2, 0.4, 0.6, 0.8};
  std::size_t max_types = 40;
  TrainerConfig trainer;
  // Generate policies via the selection tree (Section 5.3) instead of plain
  // greedy extraction. On by default: the exact tree scan is both faster to
  // converge and the policies are strictly no worse; the Figure 13/14
  // benches set this to false for the standard-RL comparison arm.
  bool use_selection_tree = true;
  SelectionTreeConfig tree;
  EscalationConfig user_policy;
};

struct ExperimentResult {
  double train_fraction = 0.0;
  // Figures 8-10: trained policy, handled-only accounting.
  EvalSummary trained;
  // Figures 11-12: hybrid policy, all test processes.
  EvalSummary hybrid;
  // Figure 13/14 inputs: per-type training telemetry.
  std::vector<TypeTrainingResult> training;
  // The deployable artifacts, for inspection and reuse.
  TrainedPolicy policy;
  std::int64_t train_processes = 0;
  std::int64_t test_processes = 0;
};

class ThreadPool;

class ExperimentRunner {
 public:
  // `clean_processes`: noise-filtered, time-ordered processes; `symptoms`:
  // the log's symptom table. Both must outlive the runner.
  ExperimentRunner(std::span<const RecoveryProcess> clean_processes,
                   const SymptomTable& symptoms, ExperimentConfig config);

  // With a pool, TrainAll(pool) trains the error types concurrently;
  // results are bit-identical to the serial path for any thread count
  // (docs/PARALLELISM.md). The experiment replications (one per train
  // fraction) are themselves independent, so RunAll() keeps the pool busy
  // across the per-type shards of whichever replication is in flight.
  ExperimentResult RunOne(double train_fraction,
                          ThreadPool* pool = nullptr) const;
  std::vector<ExperimentResult> RunAll(ThreadPool* pool = nullptr) const;

  const ErrorTypeCatalog& types() const { return types_; }
  const ExperimentConfig& config() const { return config_; }

 private:
  std::span<const RecoveryProcess> clean_;
  const SymptomTable& symptoms_;
  ExperimentConfig config_;
  ErrorTypeCatalog types_;
};

}  // namespace aer

#endif  // AER_EVAL_EXPERIMENT_H_
