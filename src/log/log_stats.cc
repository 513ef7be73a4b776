#include "log/log_stats.h"

#include <algorithm>

namespace aer {

void ErrorTypeTally::Add(SymptomId type, SimTime downtime) {
  std::uint32_t& slot = slot_of_[type];
  if (slot == kNew) {
    slot = static_cast<std::uint32_t>(stats_.size());
    stats_.push_back({.type = type});
  }
  ErrorTypeStat& s = stats_[slot];
  ++s.process_count;
  s.total_downtime += downtime;
}

std::vector<ErrorTypeStat> ErrorTypeTally::Ranked() const {
  std::vector<ErrorTypeStat> out = stats_;
  std::sort(out.begin(), out.end(),
            [](const ErrorTypeStat& a, const ErrorTypeStat& b) {
              if (a.process_count != b.process_count) {
                return a.process_count > b.process_count;
              }
              return a.type < b.type;
            });
  return out;
}

std::vector<ErrorTypeStat> RankErrorTypes(
    std::span<const RecoveryProcess> processes) {
  ErrorTypeTally tally;
  for (const RecoveryProcess& p : processes) {
    tally.Add(p.initial_symptom(), p.downtime());
  }
  return tally.Ranked();
}

SimTime TotalDowntime(const std::vector<RecoveryProcess>& processes) {
  SimTime total = 0;
  for (const RecoveryProcess& p : processes) total += p.downtime();
  return total;
}

}  // namespace aer
