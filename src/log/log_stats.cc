#include "log/log_stats.h"

#include <algorithm>
#include <unordered_map>

namespace aer {

std::vector<ErrorTypeStat> RankErrorTypes(
    std::span<const RecoveryProcess> processes) {
  std::unordered_map<SymptomId, ErrorTypeStat> stats;
  for (const RecoveryProcess& p : processes) {
    ErrorTypeStat& s = stats[p.initial_symptom()];
    s.type = p.initial_symptom();
    ++s.process_count;
    s.total_downtime += p.downtime();
  }
  std::vector<ErrorTypeStat> out;
  out.reserve(stats.size());
  for (const auto& [type, s] : stats) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const ErrorTypeStat& a, const ErrorTypeStat& b) {
              if (a.process_count != b.process_count) {
                return a.process_count > b.process_count;
              }
              return a.type < b.type;
            });
  return out;
}

SimTime TotalDowntime(const std::vector<RecoveryProcess>& processes) {
  SimTime total = 0;
  for (const RecoveryProcess& p : processes) total += p.downtime();
  return total;
}

}  // namespace aer
