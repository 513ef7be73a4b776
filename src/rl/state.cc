#include "rl/state.h"

#include "common/check.h"

namespace aer {

StateKey EncodeState(ErrorTypeId type, std::span<const RepairAction> tried) {
  AER_CHECK_GE(type, 0) << "cannot encode an invalid error type";
  AER_CHECK_LT(type, kMaxErrorTypes) << "error type exceeds state encoding";
  AER_CHECK_LE(tried.size(), kMaxTriedActions)
      << "tried-action history exceeds state encoding";
  StateKey key = static_cast<StateKey>(type);
  key |= static_cast<StateKey>(tried.size()) << 10;
  for (std::size_t i = 0; i < tried.size(); ++i) {
    key |= static_cast<StateKey>(ActionIndex(tried[i])) << (15 + 2 * i);
  }
  return key;
}

}  // namespace aer
