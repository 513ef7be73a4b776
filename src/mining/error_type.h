// Error-type inference and noise filtering (Section 3.1).
//
// The error type of a recovery process is its *initial symptom*, which the
// paper shows is representative of the whole symptom set of the underlying
// fault. Processes whose symptoms span more than one mined cluster (or touch
// unclustered symptoms) likely contain more than one concurrent error; they
// are filtered out as noise before training (3.33% of the paper's log).
#ifndef AER_MINING_ERROR_TYPE_H_
#define AER_MINING_ERROR_TYPE_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "log/log_stats.h"
#include "mining/symptom_clusters.h"

namespace aer {

// Dense index of an error type in rank order (0 = most frequent).
using ErrorTypeId = int;
inline constexpr ErrorTypeId kInvalidErrorType = -1;

struct NoiseFilterResult {
  std::vector<std::size_t> clean;  // indices into the input processes
  std::vector<std::size_t> noisy;
  double clean_fraction = 0.0;
};

// Splits processes into cohesive (clean) and noisy per the clustering.
NoiseFilterResult FilterNoisyProcesses(
    std::span<const RecoveryProcess> processes,
    const SymptomClustering& clustering);

// The cohesive processes of `processes`, in their input order. The vector
// is compacted in place, so a caller that moves it in copies no process.
std::vector<RecoveryProcess> KeepCohesive(
    std::vector<RecoveryProcess> processes,
    const SymptomClustering& clustering);

// The error-type catalog induced from a (noise-filtered) training log: the
// first `max_types` entries of RankErrorTypes, with initial symptoms mapped
// to dense rank-ordered type ids.
class ErrorTypeCatalog {
 public:
  // `processes` should already be noise-filtered; `max_types` keeps only the
  // most frequent types (the paper keeps 40 of 97).
  ErrorTypeCatalog(std::span<const RecoveryProcess> processes,
                   std::size_t max_types);

  // Type id of a process (by initial symptom) or kInvalidErrorType if its
  // initial symptom is not in the catalog.
  ErrorTypeId Classify(const RecoveryProcess& process) const;
  ErrorTypeId ClassifySymptom(SymptomId initial_symptom) const;

  std::size_t num_types() const { return types_.size(); }
  SymptomId symptom_of(ErrorTypeId t) const { return stat(t).type; }
  std::int64_t count_of(ErrorTypeId t) const { return stat(t).process_count; }

  // Fraction of input processes covered by the kept types.
  double coverage() const { return coverage_; }

 private:
  const ErrorTypeStat& stat(ErrorTypeId t) const;

  std::vector<ErrorTypeStat> types_;  // rank order
  std::unordered_map<SymptomId, ErrorTypeId> by_symptom_;
  double coverage_ = 0.0;
};

}  // namespace aer

#endif  // AER_MINING_ERROR_TYPE_H_
