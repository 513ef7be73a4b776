// Action-sequence utilities.
//
// Because the only feedback during a recovery is "cured / not cured" and a
// cure ends the process, a deterministic policy for one error type is
// exactly an action *sequence* (the states reachable under the policy are
// its own prefixes). This file evaluates a sequence against logged processes
// under the simulation platform, and computes the exact cost-optimal
// sequence by branch-and-bound — the reference optimum used by the
// selection-tree experiments (Figures 13/14) and by the property tests.
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

// Simulated downtime of executing `sequence` against one process; appends
// the terminalization steps if the sequence is exhausted uncured. Sets
// *cured_by_sequence accordingly if non-null.
double SequenceCostOnProcess(std::span<const RepairAction> sequence,
                             const RecoveryProcess& process, ErrorTypeId type,
                             const CostEstimator& estimator, int max_actions,
                             bool* cured_by_sequence = nullptr,
                             const CapabilityModel& capabilities =
                                 CapabilityModel::TotalOrder());

// SequenceCostOnProcess on an existing replay of the process, which must be
// fresh or Reset(); the replay's capability model applies.
double SequenceCostOnReplay(std::span<const RepairAction> sequence,
                            ProcessReplay& replay, ErrorTypeId type,
                            const CostEstimator& estimator, int max_actions,
                            bool* cured_by_sequence = nullptr);

// Prices each of `sequences` against every process (all must be of `type`)
// in one pass over the processes. The batch is built into a trie once (equal
// sequences share a node), and each process walks it depth-first with one
// replay, stepping every edge once and branching through Save()/Restore().
// Element i equals EvaluateSequence(sequences[i], ...) field for field: each
// total is accumulated in process order.
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

struct ExactSearchConfig {
  // Longest sequence considered (before terminalization). The optimum is
  // short in practice: appending actions only pays while uncured processes
  // remain.
  int max_length = 6;
};

// Exact minimum-mean-cost sequence over the type's *observed* actions
// (the paper's local-optimality restriction), by depth-first search with
// cost-based pruning. Deterministic; exponential in max_length but heavily
// pruned, intended for tests and reference experiments, not the hot path.
ActionSequence ExactBestSequence(
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const ExactSearchConfig& config = {});

}  // namespace aer

#endif  // AER_RL_SEQUENCE_H_
