// Train/test splitting of recovery processes "according to time order"
// (Section 5): the earliest fraction of processes trains the policy, the
// remainder tests it — matching how an operator would deploy the method.
#ifndef AER_EVAL_SPLIT_H_
#define AER_EVAL_SPLIT_H_

#include <span>

#include "log/recovery_process.h"

namespace aer {

// A prefix cut: both halves view the input, which must outlive the split.
struct TrainTestSplit {
  std::span<const RecoveryProcess> train;
  std::span<const RecoveryProcess> test;
};

// `processes` must be ordered by start time (SegmentIntoProcesses output
// is). `train_fraction` in (0, 1).
TrainTestSplit SplitByTime(std::span<const RecoveryProcess> processes,
                           double train_fraction);

}  // namespace aer

#endif  // AER_EVAL_SPLIT_H_
