// MDP state for the recovery process (Section 3.2).
//
// A state is the tuple (error type, recovery result, previously tried repair
// actions). Healthy states are terminal and carry no Q values, so the
// Q-table only ever keys failure states; those are packed into a single
// 64-bit integer: 10 bits of error type, 5 bits of sequence length and 2
// bits per tried action.
#ifndef AER_RL_STATE_H_
#define AER_RL_STATE_H_

#include <cstdint>
#include <span>

#include "mining/error_type.h"
#include "log/action.h"

namespace aer {

using StateKey = std::uint64_t;

// Hard limits implied by the packed representation.
inline constexpr ErrorTypeId kMaxErrorTypes = 1024;
inline constexpr std::size_t kMaxTriedActions = 24;

StateKey EncodeState(ErrorTypeId type, std::span<const RepairAction> tried);

}  // namespace aer

#endif  // AER_RL_STATE_H_
