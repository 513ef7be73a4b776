#include "rl/sequence.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace aer {

double SequenceCostOnProcess(std::span<const RepairAction> sequence,
                             const RecoveryProcess& process, ErrorTypeId type,
                             const CostEstimator& estimator, int max_actions,
                             Terminalization terminalization,
                             bool* cured_by_sequence,
                             const CapabilityModel& capabilities) {
  ProcessReplay replay(process, type, estimator, capabilities);
  return SequenceCostOnReplay(sequence, replay, type, estimator, max_actions,
                              terminalization, cured_by_sequence);
}

double SequenceCostOnReplay(std::span<const RepairAction> sequence,
                            ProcessReplay& replay, ErrorTypeId type,
                            const CostEstimator& estimator, int max_actions,
                            Terminalization terminalization,
                            bool* cured_by_sequence) {
  AER_CHECK_GE(max_actions, 1);
  AER_CHECK_EQ(replay.steps(), 0) << "the replay must be fresh or Reset()";
  int steps = 0;
  RepairAction strongest = RepairAction::kTryNop;
  std::array<int, kNumActions> used = {};
  for (RepairAction a : sequence) {
    if (replay.cured() || steps >= max_actions - 1) break;
    replay.Step(a);
    ++steps;
    ++used[static_cast<std::size_t>(ActionIndex(a))];
    if (ActionStrength(a) > ActionStrength(strongest)) strongest = a;
  }
  if (cured_by_sequence != nullptr) *cured_by_sequence = replay.cured();

  if (!replay.cured() && terminalization == Terminalization::kEscalate) {
    // Keep escalating from the strongest level the sequence reached, with
    // each level tried up to twice overall (counting the sequence's own
    // uses of it), manual repair once.
    for (RepairAction a : estimator.ObservedActions(type)) {
      if (!AtLeastAsStrong(a, strongest)) continue;
      const int budget = a == RepairAction::kRma ? 1 : 2;
      const int tries =
          budget - used[static_cast<std::size_t>(ActionIndex(a))];
      for (int i = 0; i < tries; ++i) {
        if (replay.cured() || steps >= max_actions - 1) break;
        replay.Step(a);
        ++steps;
      }
      if (replay.cured()) break;
    }
  }
  if (!replay.cured()) {
    replay.Step(RepairAction::kRma);  // forced manual repair at the cap
  }
  return replay.total_cost();
}

std::vector<SequenceEvaluation> EvaluateSequences(
    std::span<const ActionSequence> sequences,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    Terminalization terminalization,
    const CapabilityModel& capabilities) {
  std::vector<SequenceEvaluation> evals(sequences.size());
  for (const RecoveryProcess* p : processes) {
    ProcessReplay replay(*p, type, estimator, capabilities);
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      replay.Reset();
      bool cured = false;
      SequenceEvaluation& eval = evals[i];
      eval.total_cost +=
          SequenceCostOnReplay(sequences[i], replay, type, estimator,
                               max_actions, terminalization, &cured);
      (cured ? eval.cured_by_sequence : eval.terminalized) += 1;
      ++eval.processes;
    }
  }
  for (SequenceEvaluation& eval : evals) {
    eval.mean_cost = eval.processes > 0
                         ? eval.total_cost / static_cast<double>(eval.processes)
                         : 0.0;
  }
  return evals;
}

SequenceEvaluation EvaluateSequence(
    std::span<const RepairAction> sequence,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    Terminalization terminalization,
    const CapabilityModel& capabilities) {
  const ActionSequence one(sequence.begin(), sequence.end());
  return EvaluateSequences({&one, 1}, processes, type, estimator, max_actions,
                           terminalization, capabilities)
      .front();
}

namespace {

class ExactSearcher {
 public:
  ExactSearcher(std::span<const RecoveryProcess* const> processes,
                ErrorTypeId type, const CostEstimator& estimator,
                int max_actions, const ExactSearchConfig& config)
      : processes_(processes),
        type_(type),
        estimator_(estimator),
        max_actions_(max_actions),
        config_(config),
        allowed_(estimator.ObservedActions(type)) {}

  ActionSequence Run() {
    best_cost_ = std::numeric_limits<double>::infinity();
    best_cured_ = -1;
    ActionSequence prefix;
    Consider(prefix);  // the empty sequence (immediate terminalization)
    Descend(prefix);
    return best_;
  }

 private:
  // Cost of the bare prefix: no terminalization, uncured processes pay only
  // what the prefix spent on them. A lower bound for every extension.
  double PrefixLowerBound(std::span<const RepairAction> prefix,
                          bool* all_cured) const {
    double total = 0.0;
    bool cured_all = true;
    for (const RecoveryProcess* p : processes_) {
      ProcessReplay replay(*p, type_, estimator_);
      int steps = 0;
      for (RepairAction a : prefix) {
        if (replay.cured() || steps >= max_actions_ - 1) break;
        replay.Step(a);
        ++steps;
      }
      cured_all = cured_all && replay.cured();
      total += replay.total_cost();
    }
    *all_cured = cured_all;
    return total;
  }

  void Consider(std::span<const RepairAction> prefix) {
    double total = 0.0;
    std::int64_t cured = 0;
    for (const RecoveryProcess* p : processes_) {
      bool cured_by_seq = false;
      total += SequenceCostOnProcess(prefix, *p, type_, estimator_,
                                     max_actions_, config_.terminalization,
                                     &cured_by_seq);
      cured += cured_by_seq ? 1 : 0;
    }
    // Order: cost, then self-contained cures (more is better — the policy
    // should not rely on terminalization for incidents it can finish), then
    // shorter (dead tails never appear in the optimum).
    const bool better =
        total < best_cost_ - 1e-9 ||
        (total < best_cost_ + 1e-9 &&
         (cured > best_cured_ ||
          (cured == best_cured_ && prefix.size() < best_.size())));
    if (better) {
      best_cost_ = total;
      best_cured_ = cured;
      best_.assign(prefix.begin(), prefix.end());
    }
  }

  void Descend(ActionSequence& prefix) {
    if (static_cast<int>(prefix.size()) >= config_.max_length ||
        static_cast<int>(prefix.size()) >= max_actions_ - 1) {
      return;
    }
    bool all_cured = false;
    const double lower_bound = PrefixLowerBound(prefix, &all_cured);
    if (all_cured || lower_bound >= best_cost_) return;

    for (RepairAction a : allowed_) {
      prefix.push_back(a);
      Consider(prefix);
      Descend(prefix);
      prefix.pop_back();
    }
  }

  std::span<const RecoveryProcess* const> processes_;
  ErrorTypeId type_;
  const CostEstimator& estimator_;
  int max_actions_;
  ExactSearchConfig config_;
  std::vector<RepairAction> allowed_;

  double best_cost_ = 0.0;
  std::int64_t best_cured_ = -1;
  ActionSequence best_;
};

}  // namespace

ActionSequence ExactBestSequence(
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const ExactSearchConfig& config) {
  AER_CHECK(!processes.empty());
  return ExactSearcher(processes, type, estimator, max_actions, config).Run();
}

}  // namespace aer
