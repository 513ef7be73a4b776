// Per-error-type statistics over an ensemble of recovery processes: process
// counts and total downtime, the data behind the paper's Figures 5 and 6.
// The ranking is also the one the error-type catalog keeps the top K of
// (Section 4.1, mining/error_type.h).
#ifndef AER_LOG_LOG_STATS_H_
#define AER_LOG_LOG_STATS_H_

#include <span>
#include <vector>

#include "log/id_table.h"
#include "log/recovery_process.h"

namespace aer {

struct ErrorTypeStat {
  SymptomId type = kInvalidSymptom;
  std::int64_t process_count = 0;
  SimTime total_downtime = 0;
};

// Per-type process counts and downtime, added one process at a time.
class ErrorTypeTally {
 public:
  void Add(SymptomId type, SimTime downtime);

  // One stat per type added, in RankErrorTypes' order.
  std::vector<ErrorTypeStat> Ranked() const;

 private:
  static constexpr std::uint32_t kNew = UINT32_MAX;

  IdTable slot_of_{kNew};  // type -> index into stats_
  std::vector<ErrorTypeStat> stats_;
};

// One stat per error type, sorted by descending process count (ties broken
// by symptom id so the ranking is deterministic). This ordering defines the
// "error type 1..40" x-axis used throughout the paper's figures.
std::vector<ErrorTypeStat> RankErrorTypes(
    std::span<const RecoveryProcess> processes);

// Sum of downtime over all processes.
SimTime TotalDowntime(const std::vector<RecoveryProcess>& processes);

}  // namespace aer

#endif  // AER_LOG_LOG_STATS_H_
