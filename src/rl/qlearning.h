// Offline Q-learning on the recovery log — the paper's Figure 2 algorithm.
//
// For each error type: repeatedly sample a logged recovery process of that
// type, roll out an episode against the simulation platform choosing actions
// by Boltzmann exploration over the current Q values, record the transitions
// and apply the visit-counted TD(0) update along the episode. The episode is
// capped at N actions, the last slot always being manual repair, so every
// producible policy is proper and the values contract.
//
// Exploration is restricted to the actions observed in the training log for
// the type (others have no cost data) — the reason the result is a *local*
// optimum relative to the original user-defined policy.
#ifndef AER_RL_QLEARNING_H_
#define AER_RL_QLEARNING_H_

#include <functional>
#include <span>

#include "common/stats.h"
#include "rl/boltzmann.h"
#include "rl/policy.h"
#include "rl/qtable.h"
#include "sim/platform.h"

namespace aer {

struct TrainerConfig {
  // The paper's N (Section 3.2: N = 20).
  int max_actions = 20;
  TemperatureSchedule temperature;
  // Sweep cap; Figure 13 uses 160k.
  std::int64_t max_sweeps = 160000;
  // Convergence may not be declared before this many sweeps: early in
  // training the temperature is still high and the Q values are mostly
  // noise, so apparent stability is meaningless (and the selection tree
  // would happily lock in a bad candidate set).
  std::int64_t min_sweeps = 3000;
  // Convergence detection: the greedy policy must stay unchanged for
  // `stable_checks` consecutive checks, one check every `check_every`
  // sweeps.
  std::int64_t check_every = 200;
  int stable_checks = 25;
  std::uint64_t seed = 1234;
  // 0 = the paper's α = 1/(1+visits); positive = constant learning rate
  // (ablation only, loses the convergence guarantee).
  double fixed_alpha = 0.0;
  // Discount factor. The paper sets γ = 1 so the expected cost equals MTTR
  // (Section 2.2); γ < 1 under-weights the manual-repair tail and is
  // provided for the ablation bench.
  double gamma = 1.0;
  // TD(λ): the update target for step t is the forward-view λ-return
  //   G_t^λ = (1-λ) Σ_{n≥1} λ^{n-1} G_t^{(n)}  (+ the terminal tail),
  // mixing n-step lookaheads of the episode's actual costs with the
  // bootstrapped min-Q. λ = 0 (default) is the paper's TD(0); λ = 1 is
  // Monte-Carlo (pure episode returns). Episodes are capped at N, so the
  // O(T²) per-episode computation is cheap.
  double td_lambda = 0.0;
  // Double Q-learning (van Hasselt): maintain two tables, select the
  // bootstrap action with one and value it with the other, alternating by
  // coin flip. Corrects the min-operator's systematic *underestimation* of
  // costs (the mirror image of max-Q's over-optimism). Only affects the
  // plain trainer's TD(0) path; incompatible with td_lambda > 0.
  bool double_q = false;
  // Collect per-sweep training telemetry (temperature, max |ΔQ|, visit
  // coverage) into TypeTrainingResult::telemetry. Pure observation: the
  // trained tables and policies are bit-identical either way (no extra RNG
  // draws), so flipping this cannot perturb an experiment.
  bool collect_telemetry = false;
};

// Per-type training telemetry (populated when collect_telemetry is set).
// Per-type values are independent of sibling types, so shards from parallel
// training merge deterministically in catalog order — see
// PublishTrainingTelemetry in rl/telemetry.h.
struct TypeTelemetry {
  RunningStat temperature;  // Boltzmann temperature, one sample per sweep
  RunningStat max_q_delta;  // max |ΔQ| across a sweep's updates, per sweep
  std::int64_t q_updates = 0;
  // Visit coverage of the final table: explored (state, action) pairs over
  // states_explored × the type's allowed-action repertoire.
  std::int64_t visited_state_actions = 0;
  std::int64_t explorable_state_actions = 0;
  double visit_coverage = 0.0;
};

struct TypeTrainingResult {
  ErrorTypeId type = kInvalidErrorType;
  // Sweep count at which the finally-stable policy first appeared (the
  // paper's "sweep number before convergence"), or the cap if never stable.
  std::int64_t sweeps = 0;
  // Episodes actually rolled out (= sweeps executed before the convergence
  // break or the cap) — the work unit behind the benches' episodes/sec.
  std::int64_t episodes = 0;
  bool converged = false;
  ActionSequence sequence;  // the generated policy for this type
  std::size_t states_explored = 0;
  std::int64_t training_processes = 0;
  TypeTelemetry telemetry;  // empty unless config.collect_telemetry
};

// Extracts the greedy action sequence for `type` from a Q table: follow the
// minimal-Q explored action from the root failure state until manual repair,
// an unexplored state, or the N cap.
ActionSequence GreedySequence(const QTable& table, ErrorTypeId type,
                              int max_actions);

// Entry-wise mean of two Q tables (entries present in only one are copied
// through) — the read-out view of Double Q-learning's twin tables.
QTable MergeTablesByMean(const QTable& a, const QTable& b);

class ThreadPool;

class QLearningTrainer {
 public:
  // `training` must outlive the trainer. Processes that the catalog cannot
  // classify or that contain no repair actions are skipped.
  QLearningTrainer(const SimulationPlatform& platform,
                   std::span<const RecoveryProcess> training,
                   TrainerConfig config);

  // Trains one error type. If `table_out` is non-null the learned Q table is
  // copied there (for inspection and the selection-tree comparison).
  TypeTrainingResult TrainType(ErrorTypeId type,
                               QTable* table_out = nullptr) const;

  struct TrainingOutput {
    TrainedPolicy policy;
    std::vector<TypeTrainingResult> per_type;
  };

  // Trains every type of the platform's catalog into one deployable policy.
  // With a pool, the types train concurrently: each is a pure function of
  // (seed, type), and the results merge in catalog order, so the output is
  // byte-identical for any thread count (docs/PARALLELISM.md). With
  // `tables_out` non-null, every type's final Q-table is captured there,
  // indexed by ErrorTypeId.
  TrainingOutput TrainAll(ThreadPool* pool = nullptr,
                          std::vector<QTable>* tables_out = nullptr) const;

  // The processes grouped under one type (for the selection-tree trainer and
  // the experiment harnesses).
  std::span<const RecoveryProcess* const> processes_of(ErrorTypeId type) const;

  const TrainerConfig& config() const { return config_; }
  const SimulationPlatform& platform() const { return platform_; }

 private:
  friend class SelectionTreeTrainer;

  // A policy generator: reads a type's sequence out of a view table (the
  // table itself, or the merged twins under Double Q).
  using SequenceGenerator = std::function<ActionSequence(const QTable&)>;

  // The sequence a type ends with. kRegenerate: the generator's read-out of
  // the final table. kLastCheck: the last check's sequence, or the read-out
  // of the final table when no check produced one.
  enum class FinalSequence { kRegenerate, kLastCheck };

  // The sweep/convergence loop of both generators: sweeps until `generate`
  // has returned the same non-empty sequence at `stable_checks` consecutive
  // checks (one every check_every sweeps) and min_sweeps have run, or until
  // the sweep cap.
  TypeTrainingResult TrainTypeWith(ErrorTypeId type,
                                   const SequenceGenerator& generate,
                                   int stable_checks, FinalSequence final_rule,
                                   QTable* table_out) const;

  // The catalog-order merge of both TrainAll()s over `train_type`.
  TrainingOutput TrainAllWith(
      ThreadPool* pool, std::vector<QTable>* tables_out,
      const std::function<TypeTrainingResult(ErrorTypeId, QTable*)>&
          train_type) const;

  // One episode: sample a process, roll out, update Q. `sweep` drives the
  // temperature. With `table_b` non-null, Double Q-learning: action
  // selection uses the mean of both tables and each transition updates one
  // of them (coin flip), bootstrapping through the other. A non-null
  // `telemetry` records the sweep's temperature and max |ΔQ| (observation
  // only — identical table bytes either way).
  void RunSweep(ErrorTypeId type,
                std::span<const RecoveryProcess* const> processes,
                std::int64_t sweep, QTable& table, Rng& rng,
                QTable* table_b = nullptr,
                TypeTelemetry* telemetry = nullptr) const;

  // Fills the coverage fields of `telemetry` from a finished table.
  void FillCoverage(ErrorTypeId type, const QTable& table,
                    TypeTelemetry& telemetry) const;

  const SimulationPlatform& platform_;
  TrainerConfig config_;
  std::vector<std::vector<const RecoveryProcess*>> by_type_;
};

}  // namespace aer

#endif  // AER_RL_QLEARNING_H_
