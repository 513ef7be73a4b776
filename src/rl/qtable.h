// Table look-up representation of the Q-function (Section 3.3) with the
// paper's visit-count learning rate  α_n = 1 / (1 + visits(s, a)),  which
// makes the update a contraction and guarantees convergence of the Q values.
#ifndef AER_RL_QTABLE_H_
#define AER_RL_QTABLE_H_

#include <array>
#include <iosfwd>
#include <optional>
#include <unordered_map>

#include "rl/state.h"

namespace aer {

class QTable {
 public:
  struct Entry {
    double q = 0.0;
    std::int64_t visits = 0;
  };

  // Default: the paper's visit-counted learning rate. A positive
  // `fixed_alpha` switches to a constant rate instead — provided for the
  // ablation bench; fixed rates lose the convergence guarantee.
  explicit QTable(double fixed_alpha = 0.0) : fixed_alpha_(fixed_alpha) {}

  // True if (s, a) has been updated at least once.
  bool Has(StateKey s, RepairAction a) const;

  // Q value of an explored pair; CHECK-fails on unexplored ones.
  double Q(StateKey s, RepairAction a) const;

  std::int64_t Visits(StateKey s, RepairAction a) const;

  // All of a state's entries, indexed by ActionIndex (an entry with no
  // visits is unexplored); nullptr if the state has none. One look-up for a
  // caller that reads several actions of a state. The pointer stays valid
  // until the table is destroyed or assigned.
  const std::array<Entry, kNumActions>* Find(StateKey s) const;

  // One Q-learning update toward `target` (= step cost + min over next
  // state): q ← (1-α) q + α target with α = 1/(1+visits); increments visits.
  // Returns the signed change in q (new − old) — the trainers' telemetry
  // hook for convergence monitoring, free to compute in place.
  double Update(StateKey s, RepairAction a, double target);

  // The explored action with minimal Q (ties: weaker action first, so the
  // generated policy deterministically prefers the cheaper side of a tie).
  std::optional<RepairAction> BestAction(StateKey s) const;

  // Best and second-best explored actions, for the selection tree.
  struct BestTwo {
    RepairAction best;
    double best_q;
    std::optional<RepairAction> second;
    double second_q = 0.0;
  };
  std::optional<BestTwo> BestTwoActions(StateKey s) const;

  std::size_t num_states() const { return table_.size(); }
  std::int64_t total_updates() const { return total_updates_; }

  // Iteration support for inspection and serialization.
  const std::unordered_map<StateKey, std::array<Entry, kNumActions>>& raw()
      const {
    return table_;
  }

  // Outcome of a checked deserialization. `ok` is false on any structural
  // damage — missing/unsupported header, malformed line, checksum or entry
  // count mismatch — with a human-readable reason; the output table is left
  // empty. Corruption is never fatal: a Q-table file is untrusted input.
  struct ReadResult {
    bool ok = true;
    std::string error;
  };

  // Text checkpointing, format v1:
  //   #aerq\tv1\t<entry count>\t<fnv1a64 of body, hex>
  //   <hex state key>\t<ACTION>\t<q>\t<visits>     (sorted for stable diffs)
  // The header's checksum covers every byte after the header line, so
  // bit flips and truncation are detected instead of silently loading.
  // Read() restores exactly (the fixed-alpha setting is the caller's).
  void Write(std::ostream& os) const;
  static ReadResult ReadChecked(std::istream& is, QTable& out);
  // Convenience wrapper: ReadChecked().ok.
  static bool Read(std::istream& is, QTable& out);

 private:
  double fixed_alpha_ = 0.0;
  std::unordered_map<StateKey, std::array<Entry, kNumActions>> table_;
  std::int64_t total_updates_ = 0;
};

}  // namespace aer

#endif  // AER_RL_QTABLE_H_
