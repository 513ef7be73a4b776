#include "rl/selection_tree.h"

#include <limits>
#include <set>
#include <unordered_map>

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

TypeTrainingResult SelectionTreeTrainer::TrainType(ErrorTypeId type,
                                                   QTable* table_out) const {
  const auto processes = base_.processes_of(type);
  const TrainerConfig& tc = base_.config();

  // A candidate's price depends only on the sequence: the processes,
  // estimator, max_actions and capability model are fixed for this call.
  // So each distinct sequence is priced once, and a check pays only for the
  // sequences no earlier check has seen. The key is injective here: the
  // type is fixed and the length is packed.
  std::unordered_map<StateKey, SequenceEvaluation> priced;
  std::vector<ActionSequence> unpriced;

  const auto scan_tree = [&](const QTable& view) -> ActionSequence {
    std::vector<ActionSequence> candidates =
        BuildCandidateSequences(view, type, tc.max_actions, config_);
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
        candidates.push_back(std::move(seq));
      }
    }

    // Score every *prefix* of every candidate too: a path's tail may only
    // ever execute for a handful of incidents and still drag the whole
    // sequence down (e.g. wandering into the manual-repair cap for the one
    // process the prefix already failed on cheaply).
    std::set<ActionSequence> scored;
    for (const ActionSequence& candidate : candidates) {
      for (std::size_t len = 1; len <= candidate.size(); ++len) {
        scored.insert(
            ActionSequence(candidate.begin(),
                           candidate.begin() + static_cast<std::ptrdiff_t>(len)));
      }
    }

    unpriced.clear();
    for (const ActionSequence& seq : scored) {
      if (!priced.contains(EncodeState(type, seq))) unpriced.push_back(seq);
    }
    // Priced under the platform's relation, the one the sweeps train under.
    const std::vector<SequenceEvaluation> evals = EvaluateSequences(
        unpriced, processes, type, base_.platform().estimator(),
        tc.max_actions, Terminalization::kEscalate,
        base_.platform().capabilities());
    for (std::size_t i = 0; i < unpriced.size(); ++i) {
      priced.emplace(EncodeState(type, unpriced[i]), evals[i]);
    }

    // Lexicographic order: the tie-break below keeps the first of equals.
    ActionSequence best;
    double best_cost = std::numeric_limits<double>::infinity();
    std::int64_t best_cured = -1;
    for (const ActionSequence& seq : scored) {
      const SequenceEvaluation& eval =
          priced.find(EncodeState(type, seq))->second;
      // Strictly better cost wins; on a near-tie prefer more self-contained
      // cures, then the shorter sequence, so dead tails (actions past the
      // point where every training process is already cured) are dropped
      // while genuinely-curing tails are kept.
      const bool better =
          eval.mean_cost < best_cost - 1e-9 ||
          (eval.mean_cost < best_cost + 1e-9 &&
           (eval.cured_by_sequence > best_cured ||
            (eval.cured_by_sequence == best_cured &&
             seq.size() < best.size())));
      if (better) {
        best_cost = eval.mean_cost;
        best_cured = eval.cured_by_sequence;
        best = seq;
      }
    }
    return best;
  };

  return base_.TrainTypeWith(type, scan_tree, config_.stable_checks,
                             QLearningTrainer::FinalSequence::kLastCheck,
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
