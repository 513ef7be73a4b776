#include "eval/split.h"

#include <cmath>

#include "common/check.h"

namespace aer {

TrainTestSplit SplitByTime(std::span<const RecoveryProcess> processes,
                           double train_fraction) {
  AER_CHECK_GT(train_fraction, 0.0);
  AER_CHECK_LT(train_fraction, 1.0);
  for (std::size_t i = 1; i < processes.size(); ++i) {
    AER_CHECK_LE(processes[i - 1].start_time(), processes[i].start_time());
  }
  const std::size_t cut = static_cast<std::size_t>(
      std::llround(train_fraction * static_cast<double>(processes.size())));
  return {processes.first(cut), processes.subspan(cut)};
}

}  // namespace aer
