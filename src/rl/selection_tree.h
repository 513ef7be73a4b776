// Selection-tree accelerated policy generation (Section 5.3).
//
// Plain Q-learning must drive the Q values of *near-tied* actions far enough
// apart for the greedy policy to stop flip-flopping — for some error types
// that takes the full 160k-sweep budget (Figure 13). The selection tree
// sidesteps the wait: when generating the policy from the Q values, keep the
// best *two* actions of a state whenever the runner-up's expected total cost
// is within a threshold of the best, build the tree of candidate action
// paths, and resolve the remaining ties by *exactly* evaluating each
// candidate sequence against the training processes, with the type's one
// SequencePricer (rl/sequence.h). The scan is deterministic, so the
// generated policy stabilizes orders of magnitude earlier.
#ifndef AER_RL_SELECTION_TREE_H_
#define AER_RL_SELECTION_TREE_H_

#include <cstdint>
#include <vector>

#include "rl/qlearning.h"
#include "rl/sequence.h"

namespace aer {

struct SelectionTreeConfig {
  // Branch on the second-best action when
  //   Q(second) <= Q(best) * (1 + closeness_threshold).
  double closeness_threshold = 0.2;
  // Cap on enumerated candidate sequences per scan (the tree is binary, so
  // depth d alone could yield 2^d paths).
  std::size_t max_candidates = 64;
  // Convergence: the tree-scan winner must be unchanged for this many
  // consecutive checks (checks happen every TrainerConfig::check_every
  // sweeps). The exact evaluation is deterministic given the candidate set,
  // so far fewer checks are needed than for greedy stability.
  int stable_checks = 5;
  // Also evaluate the "start the escalation at level a" sequences (one per
  // observed action) alongside the tree's Q-derived candidates. The tree can
  // only branch on actions that reach the best-two of a state's Q values;
  // when the optimal first action is much costlier than the others (e.g.
  // hardware faults where only manual repair works), the under-trained Q
  // values keep it out of the best-two far longer than the convergence
  // window. The seeds are evaluated by the same exact scan, so they only
  // ever win when they are exactly better. An implementation hardening on
  // top of the paper's algorithm; disable to get the pure method.
  bool seed_escalation_candidates = true;
};

// Enumerates the candidate action sequences of the selection tree rooted at
// `type`'s initial state, under the Q values in `table`.
std::vector<ActionSequence> BuildCandidateSequences(
    const QTable& table, ErrorTypeId type, int max_actions,
    const SelectionTreeConfig& config);

// The tree scan of one SelectionTreeTrainer::TrainType call: the policy
// generator its sweeps call at every check. It keeps one SequencePricer for
// the type, so the processes are grouped into classes once and a check
// pays only for the sequences no earlier check has priced.
class SelectionTreeScan {
 public:
  // `base` and the type's processes must outlive the scan.
  SelectionTreeScan(const QLearningTrainer& base,
                    const SelectionTreeConfig& config, ErrorTypeId type);

  // The check under the Q values in `view`: the best of the tree's
  // candidates and all their prefixes, priced exactly. Empty when there is
  // no candidate step.
  ActionSequence Pick(const QTable& view);

 private:
  struct Best;

  // Marks every non-empty prefix of `candidate`, adding it to the pricer.
  void Mark(const ActionSequence& candidate);
  // The tie-break over the marked nodes below `node`, in pre-order with
  // children in action-index order: the lexicographic order of sequences.
  void PickBelow(std::int32_t node, std::size_t depth, Best& best) const;

  const QLearningTrainer& base_;
  SelectionTreeConfig config_;
  ErrorTypeId type_;
  // The "start the escalation at level a" candidates, the same every check.
  std::vector<ActionSequence> seeds_;
  SequencePricer pricer_;
  // Per pricer node, the last check that marked it as a candidate's prefix.
  std::vector<std::int64_t> marked_at_;
  std::int64_t checks_ = 0;
};

class SelectionTreeTrainer {
 public:
  // Wraps a QLearningTrainer: the same sweep loop, with the tree scan as
  // its policy generator and this config's stable-check count.
  SelectionTreeTrainer(const QLearningTrainer& base,
                       SelectionTreeConfig config);

  TypeTrainingResult TrainType(ErrorTypeId type,
                               QTable* table_out = nullptr) const;

  // As QLearningTrainer::TrainAll(): the same pool and table contract.
  QLearningTrainer::TrainingOutput TrainAll(
      ThreadPool* pool = nullptr,
      std::vector<QTable>* tables_out = nullptr) const;

  // The wrapped plain trainer (platform, process grouping, sweep config).
  const QLearningTrainer& base() const { return base_; }

 private:
  const QLearningTrainer& base_;
  SelectionTreeConfig config_;
};

}  // namespace aer

#endif  // AER_RL_SELECTION_TREE_H_
