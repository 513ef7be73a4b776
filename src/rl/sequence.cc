#include "rl/sequence.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "common/check.h"

namespace aer {

namespace {

using ActionUses = std::array<int, kNumActions>;

// Whether a sequence's next action still runs: SequenceCostOnReplay stops a
// sequence at a cure and at the manual-repair cap.
bool CanStep(const ProcessReplay& replay, int max_actions) {
  return !replay.cured() && replay.steps() < max_actions - 1;
}

// The terminalization after a sequence ran out uncured. `strongest` is the
// strongest action the sequence executed and `used` counts its executions
// of each action.
void Terminalize(ProcessReplay& replay, ErrorTypeId type,
                 const CostEstimator& estimator, int max_actions,
                 RepairAction strongest, const ActionUses& used) {
  if (!replay.cured()) {
    // Keep escalating from the strongest level the sequence reached, with
    // each level tried up to twice overall (counting the sequence's own
    // uses of it), manual repair once.
    for (RepairAction a : estimator.ObservedActions(type)) {
      if (!AtLeastAsStrong(a, strongest)) continue;
      const int budget = a == RepairAction::kRma ? 1 : 2;
      const int tries =
          budget - used[static_cast<std::size_t>(ActionIndex(a))];
      for (int i = 0; i < tries && CanStep(replay, max_actions); ++i) {
        replay.Step(a);
      }
      if (replay.cured()) break;
    }
  }
  if (!replay.cured()) {
    replay.Step(RepairAction::kRma);  // forced manual repair at the cap
  }
}

RepairAction Stronger(RepairAction a, RepairAction b) {
  return ActionStrength(a) > ActionStrength(b) ? a : b;
}

// A batch of sequences as a trie: node 0 is the empty sequence, and equal
// sequences end at one node.
struct SequenceTrie {
  struct Node {
    Node() { child.fill(-1); }
    std::array<std::int32_t, kNumActions> child;  // -1: no child
    bool ends = false;
  };

  std::int32_t Insert(std::span<const RepairAction> sequence) {
    std::int32_t node = 0;
    for (RepairAction a : sequence) {
      const auto i = static_cast<std::size_t>(ActionIndex(a));
      if (nodes[static_cast<std::size_t>(node)].child[i] < 0) {
        nodes[static_cast<std::size_t>(node)].child[i] =
            static_cast<std::int32_t>(nodes.size());
        nodes.emplace_back();
      }
      node = nodes[static_cast<std::size_t>(node)].child[i];
    }
    nodes[static_cast<std::size_t>(node)].ends = true;
    return node;
  }

  std::vector<Node> nodes = std::vector<Node>(1);
};

// Prices every sequence of a trie against one process per Run(), stepping
// each edge once: a node's replay branches into its children through
// Save()/Restore(). Along any root-to-node path the replay executes exactly
// the steps SequenceCostOnReplay executes for that node's sequence, so each
// price is the same double.
class TrieWalk {
 public:
  TrieWalk(const SequenceTrie& trie, ErrorTypeId type,
           const CostEstimator& estimator, int max_actions,
           std::vector<SequenceEvaluation>& node_evals)
      : trie_(trie),
        type_(type),
        estimator_(estimator),
        max_actions_(max_actions),
        node_evals_(node_evals) {}

  // Adds the process's price of each sequence to its node's evaluation.
  void Run(ProcessReplay& replay) {
    replay_ = &replay;
    used_ = {};
    Visit(0, RepairAction::kTryNop);
  }

 private:
  void Visit(std::int32_t node, RepairAction strongest) {
    if (!CanStep(*replay_, max_actions_)) {
      // The sequences at and below this node stop here alike.
      const auto [cost, cured] = Price(strongest);
      AddToSubtree(node, cost, cured);
      return;
    }
    const SequenceTrie::Node& n = trie_.nodes[static_cast<std::size_t>(node)];
    if (n.ends) {
      const auto [cost, cured] = Price(strongest);
      Add(node, cost, cured);
    }
    for (std::size_t i = 0; i < n.child.size(); ++i) {
      if (n.child[i] < 0) continue;
      const RepairAction a = kAllActions[i];
      const ProcessReplay::State saved = replay_->Save();
      replay_->Step(a);
      ++used_[i];
      Visit(n.child[i], Stronger(a, strongest));
      --used_[i];
      replay_->Restore(saved);
    }
  }

  // The price of the sequence that led to the replay's current state: the
  // terminalization runs on the replay and is then undone.
  std::pair<double, bool> Price(RepairAction strongest) {
    const ProcessReplay::State saved = replay_->Save();
    const bool cured = replay_->cured();
    Terminalize(*replay_, type_, estimator_, max_actions_, strongest, used_);
    const double cost = replay_->total_cost();
    replay_->Restore(saved);
    return {cost, cured};
  }

  void AddToSubtree(std::int32_t node, double cost, bool cured) {
    const SequenceTrie::Node& n = trie_.nodes[static_cast<std::size_t>(node)];
    if (n.ends) Add(node, cost, cured);
    for (const std::int32_t child : n.child) {
      if (child >= 0) AddToSubtree(child, cost, cured);
    }
  }

  void Add(std::int32_t node, double cost, bool cured) {
    SequenceEvaluation& eval = node_evals_[static_cast<std::size_t>(node)];
    eval.total_cost += cost;
    (cured ? eval.cured_by_sequence : eval.terminalized) += 1;
    ++eval.processes;
  }

  const SequenceTrie& trie_;
  ErrorTypeId type_;
  const CostEstimator& estimator_;
  int max_actions_;
  std::vector<SequenceEvaluation>& node_evals_;
  ProcessReplay* replay_ = nullptr;
  ActionUses used_ = {};
};

}  // namespace

double SequenceCostOnReplay(std::span<const RepairAction> sequence,
                            ProcessReplay& replay, ErrorTypeId type,
                            const CostEstimator& estimator, int max_actions,
                            bool* cured_by_sequence) {
  AER_CHECK_GE(max_actions, 1);
  AER_CHECK_EQ(replay.steps(), 0) << "the replay must be fresh or Reset()";
  RepairAction strongest = RepairAction::kTryNop;
  ActionUses used = {};
  for (RepairAction a : sequence) {
    if (!CanStep(replay, max_actions)) break;
    replay.Step(a);
    ++used[static_cast<std::size_t>(ActionIndex(a))];
    strongest = Stronger(a, strongest);
  }
  if (cured_by_sequence != nullptr) *cured_by_sequence = replay.cured();
  Terminalize(replay, type, estimator, max_actions, strongest, used);
  return replay.total_cost();
}

std::vector<SequenceEvaluation> EvaluateSequences(
    std::span<const ActionSequence> sequences,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities) {
  AER_CHECK_GE(max_actions, 1);
  SequenceTrie trie;
  std::vector<std::int32_t> node_of;
  node_of.reserve(sequences.size());
  for (const ActionSequence& sequence : sequences) {
    node_of.push_back(trie.Insert(sequence));
  }
  // Each node's total is accumulated in process order.
  std::vector<SequenceEvaluation> node_evals(trie.nodes.size());
  TrieWalk walk(trie, type, estimator, max_actions, node_evals);
  for (const RecoveryProcess* p : processes) {
    ProcessReplay replay(*p, type, estimator, capabilities);
    walk.Run(replay);
  }
  std::vector<SequenceEvaluation> evals;
  evals.reserve(sequences.size());
  for (const std::int32_t node : node_of) {
    SequenceEvaluation eval = node_evals[static_cast<std::size_t>(node)];
    eval.mean_cost = eval.processes > 0
                         ? eval.total_cost / static_cast<double>(eval.processes)
                         : 0.0;
    evals.push_back(eval);
  }
  return evals;
}

SequenceEvaluation EvaluateSequence(
    std::span<const RepairAction> sequence,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities) {
  const ActionSequence one(sequence.begin(), sequence.end());
  return EvaluateSequences({&one, 1}, processes, type, estimator, max_actions,
                           capabilities)
      .front();
}

namespace {

// Appends `prefix` and each of its extensions over `actions` up to
// `max_length` actions, in depth-first (lexicographic) order.
void AppendSequences(ActionSequence& prefix,
                     std::span<const RepairAction> actions,
                     std::size_t max_length,
                     std::vector<ActionSequence>& out) {
  out.push_back(prefix);
  if (prefix.size() == max_length) return;
  for (RepairAction a : actions) {
    prefix.push_back(a);
    AppendSequences(prefix, actions, max_length, out);
    prefix.pop_back();
  }
}

}  // namespace

ActionSequence ExactBestSequence(
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions) {
  AER_CHECK(!processes.empty());
  AER_CHECK_GE(max_actions, 1);
  // The optimum is short in practice: appending actions only pays while
  // uncured processes remain.
  constexpr int kMaxLength = 6;
  const auto max_length =
      static_cast<std::size_t>(std::min(kMaxLength, max_actions - 1));
  std::vector<ActionSequence> sequences;
  ActionSequence prefix;
  AppendSequences(prefix, estimator.ObservedActions(type), max_length,
                  sequences);
  const std::vector<SequenceEvaluation> evals =
      EvaluateSequences(sequences, processes, type, estimator, max_actions);
  // The first best in enumeration order. Order: total cost, then
  // self-contained cures (more is better — the policy should not rely on
  // terminalization for incidents it can finish), then shorter (dead tails
  // never appear in the optimum).
  std::size_t best = 0;
  for (std::size_t i = 1; i < sequences.size(); ++i) {
    const SequenceEvaluation& e = evals[i];
    const SequenceEvaluation& b = evals[best];
    const bool better =
        e.total_cost < b.total_cost - 1e-9 ||
        (e.total_cost < b.total_cost + 1e-9 &&
         (e.cured_by_sequence > b.cured_by_sequence ||
          (e.cured_by_sequence == b.cured_by_sequence &&
           sequences[i].size() < sequences[best].size())));
    if (better) best = i;
  }
  return sequences[best];
}

}  // namespace aer
