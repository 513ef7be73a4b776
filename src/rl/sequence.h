// Action-sequence utilities.
//
// Because the only feedback during a recovery is "cured / not cured" and a
// cure ends the process, a deterministic policy for one error type is
// exactly an action *sequence* (the states reachable under the policy are
// its own prefixes). This file evaluates sequences against logged processes
// under the simulation platform, and computes the exact cost-optimal short
// sequence by pricing every candidate — the reference optimum that
// examples/policy_inspection prints and the property tests check.
#ifndef AER_RL_SEQUENCE_H_
#define AER_RL_SEQUENCE_H_

#include <span>
#include <vector>

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

// Simulated downtime of executing `sequence` on an existing replay of one
// process, which must be fresh or Reset(); the replay's capability model
// applies. Appends the terminalization steps if the sequence is exhausted
// uncured, and sets *cured_by_sequence accordingly if non-null.
double SequenceCostOnReplay(std::span<const RepairAction> sequence,
                            ProcessReplay& replay, ErrorTypeId type,
                            const CostEstimator& estimator, int max_actions,
                            bool* cured_by_sequence = nullptr);

// Prices each of `sequences` against every process (all must be of `type`).
// The batch is built into a trie once (equal sequences share a node). Under
// hypotheses 1-3 a replay's path through the trie (cure points, which logged
// attempt prices each step, where an estimate is used, the escalation tail)
// depends only on the kinds of the process's attempts, in order. So the
// processes are grouped into classes by those kinds, and the trie is walked
// once per class, on its first member: one replay, each edge stepped once,
// branching through Save()/Restore(). The walk compiles into a flat program
// of the additions it makes, whose terms read a member's detection delay
// and logged costs. Then each process, in the given order, runs its class's
// program. Element i equals EvaluateSequence(sequences[i], ...) field for
// field: every price is the same double additions in the same order as the
// process's own replay, and each total is accumulated in process order.
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
