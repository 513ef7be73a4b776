// Replay of an alternative action sequence against one logged incident.
//
// This is the heart of the simulation platform (Section 4.2): given a
// recovery process from the log, ProcessReplay answers "what would executing
// this action next have cost, and would it have cured the machine?" under
// the three hypotheses:
//   - the incident is cured once the executed actions cover the process's
//     correct-action set (last action + stronger-in-process), with stronger
//     actions allowed to substitute weaker ones;
//   - an executed action is priced by its actual cost in the logged process
//     when the process contains an (unconsumed) occurrence of it, otherwise
//     by the per-type average success / failing cost;
//   - manual repair (RMA) always ends the process.
//
// A replay is a view over its process: it keeps a reference to the logged
// attempts and a few per-action counters, so constructing, stepping,
// Save()/Restore() and Reset() allocate nothing.
#ifndef AER_SIM_REPLAY_H_
#define AER_SIM_REPLAY_H_

#include <array>
#include <cstddef>

#include "log/recovery_process.h"
#include "sim/capability.h"
#include "sim/cost_model.h"

namespace aer {

class ProcessReplay {
 public:
  // `type` is the error type used for average-cost lookups; pass the
  // estimator's classification of `process`. `capabilities` chooses the
  // action-substitution relation (default: the paper's hypothesis-2 total
  // order) and must outlive the replay, as must `process` and `estimator`.
  ProcessReplay(const RecoveryProcess& process, ErrorTypeId type,
                const CostEstimator& estimator,
                const CapabilityModel& capabilities =
                    CapabilityModel::TotalOrder());

  struct StepResult {
    double cost = 0.0;
    bool cured = false;
  };

  // Executes `action` as the next repair action of the simulated recovery.
  // Must not be called after the process is cured.
  StepResult Step(RepairAction action);

  bool cured() const { return state_.cured; }
  int steps() const { return state_.steps; }

  // Detection delay + all step costs so far: the simulated downtime, on the
  // same footing as RecoveryProcess::downtime().
  double total_cost() const { return state_.total_cost; }

  // Restarts the replay of the same process. Neither Reset() nor Step()
  // allocates, so one replay can price many sequences.
  void Reset();

  // Everything Step() changes, so a walk over a tree of sequences can branch
  // from a replay and come back by copying a few counters.
  struct State {
    // Per action, the index into attempts() of its next unconsumed
    // occurrence; attempts().size() once none is left.
    std::array<std::size_t, kNumActions> next = {};
    ActionCounts executed = {};
    int steps = 0;
    bool cured = false;
    double total_cost = 0.0;
  };
  State Save() const { return state_; }
  // Returns the replay to a state Save() took from this replay.
  void Restore(const State& state) { state_ = state; }

 private:
  const RecoveryProcess& process_;
  ErrorTypeId type_;
  const CostEstimator& estimator_;
  const CapabilityModel& capabilities_;
  // The correct-action multiset (hypothesis 1) as per-kind counts.
  ActionCounts required_ = {};
  int required_total_ = 0;
  // Per action, the index of its first occurrence in the logged process
  // (attempts().size() if it never occurs): State::next after Reset().
  std::array<std::size_t, kNumActions> first_ = {};

  State state_;
};

}  // namespace aer

#endif  // AER_SIM_REPLAY_H_
