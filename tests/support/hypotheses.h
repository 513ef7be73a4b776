// Reference oracles for the paper's three hypotheses about recovery
// processes (Section 3.3), which let the offline platform infer what *would*
// have happened had a different action sequence been tried against a logged
// incident:
//
//  1. A successful recovery needs at least the process's "correct" repair
//     actions — the last action plus any stronger actions in the process.
//  2. A stronger action can replace a weaker one (it performs a superset of
//     the weaker action's effects).
//  3. Recovery processes of different errors are independent.
//
// ProcessReplay decides cures from per-kind counts
// (CapabilityModel::CoversCounts); the tests check it against these
// straightforward multiset forms.
#ifndef AER_TESTS_SUPPORT_HYPOTHESES_H_
#define AER_TESTS_SUPPORT_HYPOTHESES_H_

#include <span>
#include <vector>

#include "log/recovery_process.h"
#include "sim/capability.h"

namespace aer {

// Hypothesis 1: the multiset of repair actions required to cure the
// incident behind `process` — every occurrence whose strength is at least
// the last (curing) action's strength. This covers both of the paper's
// cases: the last action itself and any stronger actions in the process,
// and it keeps repeated same-strength failures as separate requirements so
// that replaying the process's own action sequence cures exactly at its
// last step (the property Figure 7's validation relies on). Sorted by
// descending strength.
std::vector<RepairAction> CorrectActions(const RecoveryProcess& process);

// Hypothesis 2: true if the executed actions cover the required ones — an
// injective assignment where each required action is matched by a distinct
// executed action of at least its strength.
bool CoversRequirements(std::span<const RepairAction> executed,
                        std::span<const RepairAction> required);

// Hypotheses 1+2 under an arbitrary capability model: is there an injective
// assignment of requirements to executed actions such that each requirement
// is covered? Solved by augmenting-path bipartite matching (inputs are tiny:
// at most N=20 a side). The reference for CapabilityModel::CoversCounts;
// CoversRequirements is its total-order special case.
bool CoversRequirementsUnder(std::span<const RepairAction> executed,
                             std::span<const RepairAction> required,
                             const CapabilityModel& model);

}  // namespace aer

#endif  // AER_TESTS_SUPPORT_HYPOTHESES_H_
