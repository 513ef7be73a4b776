// Reference pricer for action sequences (rl/sequence.h).
//
// SequenceCostOnReplay prices one sequence on one process the plainest way:
// step the replay through the sequence, then through its terminalization,
// and read the replay's total. SequencePricer's class-compiled trie walk
// must reproduce it bit for bit (sequence_trie_walk_test.cc,
// sequence_test.cc).
#ifndef AER_TESTS_SUPPORT_SEQUENCE_ORACLE_H_
#define AER_TESTS_SUPPORT_SEQUENCE_ORACLE_H_

#include <span>

#include "sim/replay.h"

namespace aer {

// Simulated downtime of executing `sequence` on an existing replay of one
// process, which must be fresh or Reset(); the replay's capability model
// applies. Appends the terminalization steps if the sequence is exhausted
// uncured, and sets *cured_by_sequence accordingly if non-null.
double SequenceCostOnReplay(std::span<const RepairAction> sequence,
                            ProcessReplay& replay, ErrorTypeId type,
                            const CostEstimator& estimator, int max_actions,
                            bool* cured_by_sequence = nullptr);

}  // namespace aer

#endif  // AER_TESTS_SUPPORT_SEQUENCE_ORACLE_H_
