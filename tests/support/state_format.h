// The inverse of EncodeState (rl/state.h), the reference its tests check
// the packing against, and a readable form of a state key for test
// failure messages.
#ifndef AER_TESTS_SUPPORT_STATE_FORMAT_H_
#define AER_TESTS_SUPPORT_STATE_FORMAT_H_

#include <string>
#include <vector>

#include "rl/state.h"

namespace aer {

struct DecodedState {
  ErrorTypeId type = kInvalidErrorType;
  std::vector<RepairAction> tried;
};

DecodedState DecodeState(StateKey key);

// "T12:[TRYNOP REBOOT]".
std::string FormatState(StateKey key);

}  // namespace aer

#endif  // AER_TESTS_SUPPORT_STATE_FORMAT_H_
