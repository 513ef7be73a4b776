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
    : base_(base),
      config_(config),
      type_(type),
      pricer_(base.processes_of(type), type, base.platform().estimator(),
              base.config().max_actions, base.platform().capabilities()) {
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
  std::int32_t node = SequencePricer::kRoot;
  for (const RepairAction a : candidate) {
    node = pricer_.Extend(node, a);
    marked_at_.resize(pricer_.size(), -1);
    marked_at_[static_cast<std::size_t>(node)] = checks_;
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
  for (const RepairAction a : kAllActions) {
    const std::int32_t child = pricer_.child(node, a);
    if (child < 0 || marked_at_[static_cast<std::size_t>(child)] != checks_) {
      continue;
    }
    const SequenceEvaluation& eval = pricer_.evaluation(child);
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
  pricer_.Price();

  // The tie-break keeps the first of equals, in lexicographic order.
  Best best;
  PickBelow(SequencePricer::kRoot, 0, best);
  return pricer_.sequence(best.node);
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
