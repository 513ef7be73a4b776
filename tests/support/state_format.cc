#include "support/state_format.h"

#include <sstream>

namespace aer {

DecodedState DecodeState(StateKey key) {
  DecodedState state;
  state.type = static_cast<ErrorTypeId>(key & 0x3ff);
  const std::size_t len = (key >> 10) & 0x1f;
  state.tried.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    state.tried.push_back(
        ActionFromIndex(static_cast<int>((key >> (15 + 2 * i)) & 0x3)));
  }
  return state;
}

std::string FormatState(StateKey key) {
  const DecodedState state = DecodeState(key);
  std::ostringstream os;
  os << "T" << state.type << ":[";
  for (std::size_t i = 0; i < state.tried.size(); ++i) {
    if (i > 0) os << ' ';
    os << ActionName(state.tried[i]);
  }
  os << "]";
  return os.str();
}

}  // namespace aer
