#include "support/hypotheses.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace aer {

std::vector<RepairAction> CorrectActions(const RecoveryProcess& process) {
  AER_CHECK(!process.attempts().empty());
  const RepairAction last = process.final_action();
  std::vector<RepairAction> required;
  for (const ActionAttempt& attempt : process.attempts()) {
    if (ActionStrength(attempt.action) >= ActionStrength(last)) {
      required.push_back(attempt.action);
    }
  }
  std::sort(required.begin(), required.end(),
            [](RepairAction a, RepairAction b) {
              return ActionStrength(a) > ActionStrength(b);
            });
  return required;
}

bool CoversRequirements(std::span<const RepairAction> executed,
                        std::span<const RepairAction> required) {
  if (required.size() > executed.size()) return false;
  std::vector<RepairAction> exec(executed.begin(), executed.end());
  std::vector<RepairAction> req(required.begin(), required.end());
  const auto stronger_first = [](RepairAction a, RepairAction b) {
    return ActionStrength(a) > ActionStrength(b);
  };
  std::sort(exec.begin(), exec.end(), stronger_first);
  std::sort(req.begin(), req.end(), stronger_first);
  // Greedy matching over a total order: pair the strongest requirement with
  // the strongest executed action, and so on. If any pair fails, no
  // injective assignment exists.
  for (std::size_t i = 0; i < req.size(); ++i) {
    if (!AtLeastAsStrong(exec[i], req[i])) return false;
  }
  return true;
}

bool CoversRequirementsUnder(std::span<const RepairAction> executed,
                             std::span<const RepairAction> required,
                             const CapabilityModel& model) {
  if (required.empty()) return true;
  if (required.size() > executed.size()) return false;

  // Augmenting-path bipartite matching: requirement i may match executed j
  // iff model.Covers(executed[j], required[i]).
  std::vector<int> match_of_executed(executed.size(), -1);
  std::vector<bool> visited;

  // Standard Kuhn's algorithm.
  struct Dfs {
    std::span<const RepairAction> executed;
    std::span<const RepairAction> required;
    const CapabilityModel& model;
    std::vector<int>& match_of_executed;
    std::vector<bool>& visited;

    bool Augment(std::size_t req) {
      for (std::size_t j = 0; j < executed.size(); ++j) {
        if (visited[j] || !model.Covers(executed[j], required[req])) continue;
        visited[j] = true;
        if (match_of_executed[j] == -1 ||
            Augment(static_cast<std::size_t>(match_of_executed[j]))) {
          match_of_executed[j] = static_cast<int>(req);
          return true;
        }
      }
      return false;
    }
  };

  for (std::size_t i = 0; i < required.size(); ++i) {
    visited.assign(executed.size(), false);
    Dfs dfs{executed, required, model, match_of_executed, visited};
    if (!dfs.Augment(i)) return false;
  }
  return true;
}

}  // namespace aer
