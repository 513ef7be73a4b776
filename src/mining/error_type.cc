#include "mining/error_type.h"

#include "common/check.h"

namespace aer {

NoiseFilterResult FilterNoisyProcesses(
    std::span<const RecoveryProcess> processes,
    const SymptomClustering& clustering) {
  NoiseFilterResult result;
  for (std::size_t i = 0; i < processes.size(); ++i) {
    if (clustering.IsCohesive(processes[i])) {
      result.clean.push_back(i);
    } else {
      result.noisy.push_back(i);
    }
  }
  result.clean_fraction =
      processes.empty()
          ? 0.0
          : static_cast<double>(result.clean.size()) /
                static_cast<double>(processes.size());
  return result;
}

std::vector<RecoveryProcess> KeepCohesive(
    std::vector<RecoveryProcess> processes,
    const SymptomClustering& clustering) {
  std::erase_if(processes, [&](const RecoveryProcess& p) {
    return !clustering.IsCohesive(p);
  });
  return processes;
}

ErrorTypeCatalog::ErrorTypeCatalog(
    std::span<const RecoveryProcess> processes, std::size_t max_types)
    : types_(RankErrorTypes(processes)) {
  if (types_.size() > max_types) types_.resize(max_types);
  std::int64_t covered = 0;
  for (std::size_t i = 0; i < types_.size(); ++i) {
    by_symptom_[types_[i].type] = static_cast<ErrorTypeId>(i);
    covered += types_[i].process_count;
  }
  coverage_ = processes.empty()
                  ? 0.0
                  : static_cast<double>(covered) /
                        static_cast<double>(processes.size());
}

ErrorTypeId ErrorTypeCatalog::Classify(const RecoveryProcess& process) const {
  return ClassifySymptom(process.initial_symptom());
}

ErrorTypeId ErrorTypeCatalog::ClassifySymptom(SymptomId initial_symptom) const {
  const auto it = by_symptom_.find(initial_symptom);
  return it == by_symptom_.end() ? kInvalidErrorType : it->second;
}

const ErrorTypeStat& ErrorTypeCatalog::stat(ErrorTypeId t) const {
  AER_CHECK_GE(t, 0);
  AER_CHECK_LT(static_cast<std::size_t>(t), types_.size());
  return types_[static_cast<std::size_t>(t)];
}

}  // namespace aer
