// Online Q-learning recovery policy — learning *in production*, the
// approach the paper argues against in Section 2.3.1 (exploration executes
// bad policies on live machines, the initial policy is arbitrary, and rare
// errors take years to accumulate observations). Implemented here so the
// argument can be measured: the online-vs-offline bench shows the downtime
// an online learner burns before it catches up, if it ever does.
//
// The policy plugs into the same frameworks as every other RecoveryPolicy
// (FleetSimulator::Run, RecoveryManager); it receives its reinforcement
// signal through RecoveryPolicy::OnActionOutcome, so it is stateful: run
// it with no pool. A one-shard fleet then shows it its events in global
// time order; a multi-shard one, shard after shard. Unlike the
// offline trainer it is not restricted to actions observed in any log — it
// explores all four repair actions on the live system, which is precisely
// the problem.
#ifndef AER_RL_ONLINE_POLICY_H_
#define AER_RL_ONLINE_POLICY_H_

#include <string>
#include <unordered_map>

#include "cluster/policy.h"
#include "rl/boltzmann.h"
#include "rl/qtable.h"

namespace aer {

struct OnlinePolicyConfig {
  int max_actions = 20;
  // Temperature decays with *completed episodes of the same error type*, so
  // frequent types anneal quickly and rare types keep exploring — the
  // paper's "several years may be required to converge for infrequent
  // errors" in one line.
  TemperatureSchedule temperature{.initial = 2000.0,
                                  .decay = 0.995,
                                  .floor = 10.0};
  std::uint64_t seed = 777;
};

class OnlineQLearningPolicy final : public RecoveryPolicy {
 public:
  explicit OnlineQLearningPolicy(OnlinePolicyConfig config = {});

  RepairAction ChooseAction(const RecoveryContext& context) override;

  void OnActionOutcome(const RecoveryContext& context, RepairAction action,
                       SimTime cost, bool cured) override;

  std::string_view name() const override { return "online-q"; }

  const QTable& table() const { return table_; }
  std::int64_t episodes_completed() const { return episodes_completed_; }
  std::size_t types_seen() const { return types_.size(); }

 private:
  // Dynamically interns error types by initial-symptom name.
  ErrorTypeId TypeOf(std::string_view symptom_name);
  double QOrPrior(StateKey s, RepairAction a) const;

  OnlinePolicyConfig config_;
  Rng rng_;
  QTable table_;
  std::unordered_map<std::string, ErrorTypeId> types_;
  std::vector<std::int64_t> episodes_per_type_;
  std::int64_t episodes_completed_ = 0;
};

}  // namespace aer

#endif  // AER_RL_ONLINE_POLICY_H_
