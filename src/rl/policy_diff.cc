#include "rl/policy_diff.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/string_util.h"
#include "rl/sequence.h"

namespace aer {
namespace {

std::string SequenceText(const ActionSequence& sequence) {
  if (sequence.empty()) return "(none)";
  std::string out;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    if (i > 0) out += ' ';
    out += ActionName(sequence[i]);
  }
  return out;
}

}  // namespace

PolicyDiff DiffPolicies(const TrainedPolicy& old_policy,
                        const TrainedPolicy& new_policy) {
  PolicyDiff diff;
  // Deterministic order: sort all involved type names.
  std::map<std::string, const TrainedPolicy::TypeEntry*> old_by_name;
  for (const auto& entry : old_policy.entries()) {
    old_by_name[entry.symptom_name] = &entry;
  }
  std::map<std::string, const TrainedPolicy::TypeEntry*> new_by_name;
  for (const auto& entry : new_policy.entries()) {
    new_by_name[entry.symptom_name] = &entry;
  }

  for (const auto& [name, old_entry] : old_by_name) {
    const auto it = new_by_name.find(name);
    if (it == new_by_name.end()) {
      diff.entries.push_back({PolicyDiffEntry::Kind::kRemoved, name,
                              old_entry->sequence, {}, std::nullopt,
                              std::nullopt});
    } else if (it->second->sequence != old_entry->sequence) {
      diff.entries.push_back({PolicyDiffEntry::Kind::kChanged, name,
                              old_entry->sequence, it->second->sequence,
                              std::nullopt, std::nullopt});
    } else {
      ++diff.unchanged_types;
    }
  }
  for (const auto& [name, new_entry] : new_by_name) {
    if (!old_by_name.contains(name)) {
      diff.entries.push_back({PolicyDiffEntry::Kind::kAdded, name, {},
                              new_entry->sequence, std::nullopt,
                              std::nullopt});
    }
  }
  return diff;
}

PolicyDiff DiffPolicies(const TrainedPolicy& old_policy,
                        const TrainedPolicy& new_policy,
                        const SimulationPlatform& platform,
                        std::span<const RecoveryProcess> processes) {
  PolicyDiff diff = DiffPolicies(old_policy, new_policy);

  // Group the evaluation processes by initial-symptom name.
  std::map<std::string, std::vector<const RecoveryProcess*>> by_name;
  for (const RecoveryProcess& p : processes) {
    if (p.attempts().empty()) continue;
    by_name[platform.symptoms().Name(p.initial_symptom())].push_back(&p);
  }

  for (PolicyDiffEntry& entry : diff.entries) {
    const auto it = by_name.find(entry.symptom_name);
    if (it == by_name.end()) continue;
    const SymptomId symptom =
        platform.symptoms().Find(entry.symptom_name);
    const ErrorTypeId type = platform.types().ClassifySymptom(symptom);
    if (type == kInvalidErrorType) continue;
    if (!entry.old_sequence.empty()) {
      entry.old_mean_cost =
          EvaluateSequence(entry.old_sequence, it->second, type,
                           platform.estimator(),
                           platform.max_actions_per_process(),
                           platform.capabilities())
              .mean_cost;
    }
    if (!entry.new_sequence.empty()) {
      entry.new_mean_cost =
          EvaluateSequence(entry.new_sequence, it->second, type,
                           platform.estimator(),
                           platform.max_actions_per_process(),
                           platform.capabilities())
              .mean_cost;
    }
  }
  return diff;
}

std::string FormatPolicyDiff(const PolicyDiff& diff) {
  std::ostringstream os;
  if (diff.entries.empty()) {
    os << StrFormat("no rule changes (%zu types unchanged)\n",
                    diff.unchanged_types);
    return os.str();
  }
  os << StrFormat("%zu rule change(s), %zu type(s) unchanged:\n",
                  diff.entries.size(), diff.unchanged_types);
  for (const PolicyDiffEntry& entry : diff.entries) {
    const char* tag = entry.kind == PolicyDiffEntry::Kind::kAdded ? "+"
                      : entry.kind == PolicyDiffEntry::Kind::kRemoved ? "-"
                                                                      : "~";
    os << StrFormat("  %s %-28s %s  ->  %s\n", tag,
                    entry.symptom_name.c_str(),
                    SequenceText(entry.old_sequence).c_str(),
                    SequenceText(entry.new_sequence).c_str());
    if (entry.old_mean_cost.has_value() && entry.new_mean_cost.has_value()) {
      os << StrFormat("      est. mean cost %.0f s -> %.0f s (%+.1f%%)\n",
                      *entry.old_mean_cost, *entry.new_mean_cost,
                      100.0 * (*entry.new_mean_cost / *entry.old_mean_cost -
                               1.0));
    }
  }
  return os.str();
}

}  // namespace aer
