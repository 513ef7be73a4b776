// Action sequences and their prices.
//
// Because the only feedback during a recovery is "cured / not cured" and a
// cure ends the process, a deterministic policy for one error type is
// exactly an action *sequence* (the states reachable under the policy are
// its own prefixes). A SequencePricer prices sequences against one type's
// logged processes under the simulation platform; every sequence price in
// the library comes from one. ExactBestSequence prices every short candidate
// for the exact cost-optimal one: the reference optimum that
// examples/policy_inspection prints and the property tests check.
#ifndef AER_RL_SEQUENCE_H_
#define AER_RL_SEQUENCE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "sim/replay.h"

namespace aer {

using ActionSequence = std::vector<RepairAction>;

// When a sequence runs out before the process is cured, the process keeps
// escalating (its *terminalization*): each observed action at least as
// strong as the sequence's strongest is tried in ascending order (twice
// each), then manual repair at the cap. This matches what actually happens
// in deployment — the hybrid policy falls back and keeps escalating — and
// what Q-learning episodes experience. Pricing every miss at a full manual
// repair instead would push the generator toward cure-everything sequences
// that waste time on the common cases.

struct SequenceEvaluation {
  double mean_cost = 0.0;
  double total_cost = 0.0;
  std::int64_t processes = 0;
  // Cured by the sequence itself, before any terminalization step.
  std::int64_t cured_by_sequence = 0;
  std::int64_t terminalized = 0;
};

// The pricing state of one error type. The processes are grouped once into
// classes of equal attempt kinds, in order: under hypotheses 1-3 a replay's
// path through a trie of sequences depends only on those kinds. One trie
// holds every sequence asked for so far, each node priced once. Price()
// walks the trie once per class, down only the paths to the nodes added
// since the last call, compiling the additions it makes into a program that
// each process then runs, in the given order. So a node's evaluation equals
// one replay per process of its sequence, field for field and bit for bit.
class SequencePricer {
 public:
  static constexpr std::int32_t kRoot = 0;  // the empty sequence

  // All `processes` must be of `type`; they, `estimator` and `capabilities`
  // must outlive the pricer.
  SequencePricer(
      std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
      const CostEstimator& estimator, int max_actions,
      const CapabilityModel& capabilities = CapabilityModel::TotalOrder());

  // The node of `id`'s sequence followed by `action`, added if new.
  std::int32_t Extend(std::int32_t id, RepairAction action);
  // The node of `sequence`, added with its prefixes if new.
  std::int32_t Insert(std::span<const RepairAction> sequence);
  // Prices the nodes added since the last call (the root on the first).
  void Price();

  // The evaluation of a node added before the last Price().
  const SequenceEvaluation& evaluation(std::int32_t id) const {
    AER_DCHECK_LT(id, priced_);
    return node(id).eval;
  }
  // `id`'s child by `action`, or -1 if the trie has none.
  std::int32_t child(std::int32_t id, RepairAction action) const {
    return node(id).child[static_cast<std::size_t>(ActionIndex(action))];
  }
  ActionSequence sequence(std::int32_t id) const;  // root to `id`
  std::size_t size() const { return nodes_.size(); }  // the root included

 private:
  struct Node {
    Node() { child.fill(-1); }
    std::array<std::int32_t, kNumActions> child;  // -1: no child
    std::int32_t parent = -1;
    RepairAction action = RepairAction::kTryNop;
    std::int32_t newest = 0;  // the largest id in its subtree
    SequenceEvaluation eval;
  };
  class TrieWalk;

  const Node& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  Node& node(std::int32_t id) { return nodes_[static_cast<std::size_t>(id)]; }

  std::span<const RecoveryProcess* const> processes_;
  ErrorTypeId type_;
  const CostEstimator& estimator_;
  int max_actions_;
  const CapabilityModel& capabilities_;
  // Per process, its class; per class, its first member and member count.
  std::vector<std::int32_t> class_of_;
  std::vector<std::size_t> first_member_;
  std::vector<std::int64_t> members_;
  std::vector<Node> nodes_;
  std::int32_t priced_ = 0;  // nodes below this id are priced
};

// Prices each of `sequences` against every process (all must be of `type`)
// with a one-shot SequencePricer: equal sequences share a node. Element i
// equals EvaluateSequence(sequences[i], ...) field for field.
std::vector<SequenceEvaluation> EvaluateSequences(
    std::span<const ActionSequence> sequences,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities = CapabilityModel::TotalOrder());

// Prices `sequence` against every process (all must be of `type`): the
// one-sequence case of EvaluateSequences.
SequenceEvaluation EvaluateSequence(
    std::span<const RepairAction> sequence,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities = CapabilityModel::TotalOrder());

// Exact minimum-total-cost sequence over the type's *observed* actions (the
// paper's local-optimality restriction): every sequence of at most
// min(6, max_actions - 1) actions is priced in one EvaluateSequences call.
// Ties within 1e-9 go to more self-contained cures, then to the shorter
// sequence, then to the first in lexicographic order of ObservedActions.
// Deterministic; exponential in the length bound (at most 5,461 sequences
// over four actions), intended for tests and reference experiments, not the
// hot path.
ActionSequence ExactBestSequence(
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions);

}  // namespace aer

#endif  // AER_RL_SEQUENCE_H_
