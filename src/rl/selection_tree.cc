#include "rl/selection_tree.h"

#include <limits>

#include "common/check.h"

namespace aer {
namespace {

void Enumerate(const QTable& table, ErrorTypeId type, int max_actions,
               const SelectionTreeConfig& config, ActionSequence& prefix,
               std::vector<ActionSequence>& out) {
  if (out.size() >= config.max_candidates) return;
  if (static_cast<int>(prefix.size()) >= max_actions) {
    out.push_back(prefix);
    return;
  }
  const StateKey s = EncodeState(type, prefix);
  const auto best2 = table.BestTwoActions(s);
  if (!best2.has_value()) {
    // Unexplored state: the path ends here.
    out.push_back(prefix);
    return;
  }

  // Candidate actions of this node: the best, plus the second best when its
  // expected total cost is close enough.
  RepairAction candidates[2];
  int n = 0;
  candidates[n++] = best2->best;
  if (best2->second.has_value() &&
      best2->second_q <= best2->best_q * (1.0 + config.closeness_threshold)) {
    candidates[n++] = *best2->second;
  }

  for (int i = 0; i < n; ++i) {
    prefix.push_back(candidates[i]);
    if (candidates[i] == RepairAction::kRma) {
      if (out.size() < config.max_candidates) out.push_back(prefix);
    } else {
      Enumerate(table, type, max_actions, config, prefix, out);
    }
    prefix.pop_back();
  }
}

}  // namespace

std::vector<ActionSequence> BuildCandidateSequences(
    const QTable& table, ErrorTypeId type, int max_actions,
    const SelectionTreeConfig& config) {
  std::vector<ActionSequence> out;
  ActionSequence prefix;
  Enumerate(table, type, max_actions, config, prefix, out);
  return out;
}

SelectionTreeTrainer::SelectionTreeTrainer(const QLearningTrainer& base,
                                           SelectionTreeConfig config)
    : base_(base), config_(config) {
  AER_CHECK_GE(config_.closeness_threshold, 0.0);
  AER_CHECK_GT(config_.max_candidates, 0u);
  AER_CHECK_GT(config_.stable_checks, 0);
}

SelectionTreeScan::SelectionTreeScan(const QLearningTrainer& base,
                                     const SelectionTreeConfig& config,
                                     ErrorTypeId type)
    : base_(base), config_(config), type_(type), nodes_(1) {
  if (config_.seed_escalation_candidates) {
    const std::vector<RepairAction>& allowed =
        base_.platform().estimator().ObservedActions(type);
    for (std::size_t start = 0; start < allowed.size(); ++start) {
      // Escalate from allowed[start] upward, trying each level twice
      // (covering repeated-requirement incidents).
      ActionSequence seq;
      for (std::size_t i = start; i < allowed.size(); ++i) {
        seq.push_back(allowed[i]);
        if (allowed[i] != RepairAction::kRma) seq.push_back(allowed[i]);
      }
      seeds_.push_back(std::move(seq));
    }
  }
}

void SelectionTreeScan::Mark(const ActionSequence& candidate) {
  std::int32_t node = 0;
  for (std::size_t len = 1; len <= candidate.size(); ++len) {
    const RepairAction a = candidate[len - 1];
    const auto i = static_cast<std::size_t>(ActionIndex(a));
    std::int32_t next = nodes_[static_cast<std::size_t>(node)].child[i];
    if (next < 0) {
      next = static_cast<std::int32_t>(nodes_.size());
      nodes_[static_cast<std::size_t>(node)].child[i] = next;
      Node& added = nodes_.emplace_back();
      added.parent = node;
      added.action = a;
    }
    node = next;
    Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.marked_at == checks_) continue;
    n.marked_at = checks_;
    if (!n.priced) {
      unpriced_.emplace_back(
          candidate.begin(),
          candidate.begin() + static_cast<std::ptrdiff_t>(len));
      unpriced_nodes_.push_back(node);
    }
  }
}

struct SelectionTreeScan::Best {
  std::int32_t node = 0;
  std::size_t length = 0;
  double cost = std::numeric_limits<double>::infinity();
  std::int64_t cured = -1;
};

void SelectionTreeScan::PickBelow(std::int32_t node, std::size_t depth,
                                  Best& best) const {
  const Node& parent = nodes_[static_cast<std::size_t>(node)];
  for (const std::int32_t child : parent.child) {
    if (child < 0) continue;
    const Node& n = nodes_[static_cast<std::size_t>(child)];
    if (n.marked_at != checks_) continue;
    const SequenceEvaluation& eval = n.eval;
    // Strictly better cost wins; on a near-tie prefer more self-contained
    // cures, then the shorter sequence, so dead tails (actions past the
    // point where every training process is already cured) are dropped
    // while genuinely-curing tails are kept.
    const bool better =
        eval.mean_cost < best.cost - 1e-9 ||
        (eval.mean_cost < best.cost + 1e-9 &&
         (eval.cured_by_sequence > best.cured ||
          (eval.cured_by_sequence == best.cured && depth + 1 < best.length)));
    if (better) {
      best = {child, depth + 1, eval.mean_cost, eval.cured_by_sequence};
    }
    PickBelow(child, depth + 1, best);
  }
}

ActionSequence SelectionTreeScan::Pick(const QTable& view) {
  const TrainerConfig& tc = base_.config();
  ++checks_;
  unpriced_.clear();
  unpriced_nodes_.clear();
  // Score every *prefix* of every candidate too: a path's tail may only
  // ever execute for a handful of incidents and still drag the whole
  // sequence down (e.g. wandering into the manual-repair cap for the one
  // process the prefix already failed on cheaply).
  for (const ActionSequence& candidate :
       BuildCandidateSequences(view, type_, tc.max_actions, config_)) {
    Mark(candidate);
  }
  for (const ActionSequence& seed : seeds_) Mark(seed);

  // Priced under the platform's relation, the one the sweeps train under.
  // A check whose candidates are all priced already replays nothing.
  if (!unpriced_.empty()) {
    const std::vector<SequenceEvaluation> evals = EvaluateSequences(
        unpriced_, base_.processes_of(type_), type_,
        base_.platform().estimator(), tc.max_actions,
        base_.platform().capabilities());
    for (std::size_t i = 0; i < unpriced_nodes_.size(); ++i) {
      Node& n = nodes_[static_cast<std::size_t>(unpriced_nodes_[i])];
      n.eval = evals[i];
      n.priced = true;
    }
  }

  // The tie-break keeps the first of equals, in lexicographic order.
  Best best;
  PickBelow(0, 0, best);
  ActionSequence sequence(best.length);
  for (std::int32_t node = best.node; node > 0;
       node = nodes_[static_cast<std::size_t>(node)].parent) {
    sequence[--best.length] = nodes_[static_cast<std::size_t>(node)].action;
  }
  return sequence;
}

TypeTrainingResult SelectionTreeTrainer::TrainType(ErrorTypeId type,
                                                   QTable* table_out) const {
  SelectionTreeScan scan(base_, config_, type);
  return base_.TrainTypeWith(
      type, [&scan](const QTable& view) { return scan.Pick(view); },
      config_.stable_checks, QLearningTrainer::FinalSequence::kLastCheck,
      table_out);
}

QLearningTrainer::TrainingOutput SelectionTreeTrainer::TrainAll(
    ThreadPool* pool, std::vector<QTable>* tables_out) const {
  return base_.TrainAllWith(pool, tables_out,
                            [this](ErrorTypeId type, QTable* table_out) {
                              return TrainType(type, table_out);
                            });
}

}  // namespace aer
