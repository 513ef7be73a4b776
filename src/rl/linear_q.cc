#include "rl/linear_q.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"

namespace aer {

LinearQFunction::FeatureVector LinearQFunction::Features(
    std::span<const RepairAction> tried) {
  FeatureVector x = {};
  x[0] = 1.0;  // bias
  for (RepairAction a : tried) {
    x[1 + static_cast<std::size_t>(ActionIndex(a))] += 1.0;
  }
  x[kNumFeatures - 1] = static_cast<double>(tried.size());
  return x;
}

LinearQFunction::LinearQFunction(std::size_t num_types)
    : weights_(num_types) {
  for (auto& per_type : weights_) {
    for (auto& w : per_type) w = {};
  }
}

double LinearQFunction::Q(ErrorTypeId type, const FeatureVector& features,
                          RepairAction action) const {
  AER_CHECK_GE(type, 0);
  AER_CHECK_LT(static_cast<std::size_t>(type), weights_.size());
  const FeatureVector& w =
      weights_[static_cast<std::size_t>(type)]
              [static_cast<std::size_t>(ActionIndex(action))];
  double q = 0.0;
  for (int i = 0; i < kNumFeatures; ++i) {
    q += w[static_cast<std::size_t>(i)] * features[static_cast<std::size_t>(i)];
  }
  return q;
}

void LinearQFunction::Update(ErrorTypeId type, const FeatureVector& features,
                             RepairAction action, double target,
                             double alpha) {
  AER_CHECK_GT(alpha, 0.0);
  AER_CHECK_LE(alpha, 1.0);
  AER_CHECK(std::isfinite(target));
  FeatureVector& w = weights_[static_cast<std::size_t>(type)]
                             [static_cast<std::size_t>(ActionIndex(action))];
  double norm = 0.0;
  for (double x : features) norm += x * x;
  AER_CHECK_GT(norm, 0.0);  // bias feature guarantees this
  const double error = target - Q(type, features, action);
  const double step = alpha * error / norm;
  for (int i = 0; i < kNumFeatures; ++i) {
    w[static_cast<std::size_t>(i)] +=
        step * features[static_cast<std::size_t>(i)];
  }
  ++updates_;
}

void LinearQFunction::SetBias(ErrorTypeId type, RepairAction action,
                              double value) {
  weights_[static_cast<std::size_t>(type)]
          [static_cast<std::size_t>(ActionIndex(action))][0] = value;
}

std::size_t LinearQFunction::num_parameters() const {
  return weights_.size() * kNumActions * kNumFeatures;
}

ApproxQLearningTrainer::ApproxQLearningTrainer(
    const SimulationPlatform& platform,
    std::span<const RecoveryProcess> training, ApproxTrainerConfig config)
    : platform_(platform),
      config_(config),
      by_type_(platform.types().num_types()) {
  AER_CHECK_GE(config_.max_actions, 2);
  AER_CHECK_GT(config_.sweeps, 0);
  for (const RecoveryProcess& p : training) {
    if (p.attempts().empty()) continue;
    const ErrorTypeId t = platform.types().Classify(p);
    if (t == kInvalidErrorType) continue;
    by_type_[static_cast<std::size_t>(t)].push_back(&p);
  }
}

void ApproxQLearningTrainer::TrainType(ErrorTypeId type,
                                       LinearQFunction& q) const {
  const auto& processes = by_type_[static_cast<std::size_t>(type)];
  if (processes.empty()) return;

  const std::vector<RepairAction>& allowed =
      platform_.estimator().ObservedActions(type);
  AER_CHECK(!allowed.empty());

  // Initialize each action's bias at its one-step success cost (the same
  // admissible-optimism choice as the tabular trainer).
  for (RepairAction a : kAllActions) {
    q.SetBias(type, a,
              platform_.estimator().EstimateCost(type, a, /*success=*/true));
  }

  Rng rng(DeriveStream(config_.seed, static_cast<std::uint64_t>(type)));

  struct Transition {
    LinearQFunction::FeatureVector features;
    RepairAction action;
    double cost;
    LinearQFunction::FeatureVector next_features;
    bool terminal;
  };
  std::vector<Transition> episode;
  std::vector<RepairAction> tried;
  std::vector<double> costs(allowed.size());

  // Off-policy TD with function approximation can diverge (the classic
  // deadly triad); bootstrapped values and targets are clamped to the
  // physically meaningful range — no recovery can cost less than nothing or
  // more than a full cap of manual repairs.
  const double max_plausible =
      2.0 * static_cast<double>(config_.max_actions) *
      platform_.estimator().EstimateCost(type, RepairAction::kRma,
                                         /*success=*/true);
  const auto clamp = [&](double v) {
    return std::clamp(v, 0.0, max_plausible);
  };
  const auto min_q = [&](const LinearQFunction::FeatureVector& x) {
    double best = q.Q(type, x, allowed.front());
    for (std::size_t i = 1; i < allowed.size(); ++i) {
      best = std::min(best, q.Q(type, x, allowed[i]));
    }
    return clamp(best);
  };

  for (std::int64_t sweep = 0; sweep < config_.sweeps; ++sweep) {
    const RecoveryProcess& p =
        *processes[rng.NextBounded(processes.size())];
    ProcessReplay replay(p, type, platform_.estimator(),
                         platform_.capabilities());
    const double temperature = config_.temperature.At(sweep);
    episode.clear();
    tried.clear();

    while (!replay.cured()) {
      const auto features = LinearQFunction::Features(tried);
      RepairAction a;
      if (static_cast<int>(tried.size()) >= config_.max_actions - 1) {
        a = RepairAction::kRma;
      } else {
        for (std::size_t i = 0; i < allowed.size(); ++i) {
          costs[i] = q.Q(type, features, allowed[i]);
        }
        a = allowed[SampleBoltzmann(costs, temperature, rng)];
      }
      const ProcessReplay::StepResult step = replay.Step(a);
      tried.push_back(a);
      episode.push_back({features, a, step.cost,
                         LinearQFunction::Features(tried), step.cured});
    }
    for (const Transition& t : episode) {
      const double future = t.terminal ? 0.0 : min_q(t.next_features);
      q.Update(type, t.features, t.action, clamp(t.cost + future),
               config_.learning_rate);
    }
  }
}

ActionSequence ApproxQLearningTrainer::ExtractSequence(
    ErrorTypeId type, const LinearQFunction& q) const {
  const auto& processes = by_type_[static_cast<std::size_t>(type)];
  if (processes.empty()) return {};
  const std::vector<RepairAction>& allowed =
      platform_.estimator().ObservedActions(type);

  // Greedy rollout against the approximate Q...
  ActionSequence greedy;
  std::vector<RepairAction> tried;
  while (static_cast<int>(greedy.size()) < config_.max_actions) {
    const auto features = LinearQFunction::Features(tried);
    RepairAction best = allowed.front();
    double best_q = q.Q(type, features, best);
    for (std::size_t i = 1; i < allowed.size(); ++i) {
      const double value = q.Q(type, features, allowed[i]);
      if (value < best_q) {
        best_q = value;
        best = allowed[i];
      }
    }
    greedy.push_back(best);
    tried.push_back(best);
    if (best == RepairAction::kRma) break;
  }

  // ...then exact prefix pruning, as in the selection-tree scan: linear Q
  // tails can wander once every process is effectively cured. All the
  // non-empty prefixes are priced in one trie walk.
  std::vector<ActionSequence> prefixes;
  for (std::size_t len = 1; len <= greedy.size(); ++len) {
    prefixes.emplace_back(greedy.begin(),
                          greedy.begin() + static_cast<std::ptrdiff_t>(len));
  }
  const std::vector<SequenceEvaluation> evals = EvaluateSequences(
      prefixes, processes, type, platform_.estimator(), config_.max_actions,
      platform_.capabilities());
  std::size_t best = 0;
  for (std::size_t i = 1; i < prefixes.size(); ++i) {
    const SequenceEvaluation& e = evals[i];
    const SequenceEvaluation& b = evals[best];
    const bool better = e.mean_cost < b.mean_cost - 1e-9 ||
                        (e.mean_cost < b.mean_cost + 1e-9 &&
                         e.cured_by_sequence > b.cured_by_sequence);
    if (better) best = i;
  }
  return prefixes[best];
}

ApproxQLearningTrainer::Output ApproxQLearningTrainer::Train() const {
  Output output{TrainedPolicy{},
                LinearQFunction(platform_.types().num_types()),
                {}};
  for (std::size_t t = 0; t < by_type_.size(); ++t) {
    const ErrorTypeId type = static_cast<ErrorTypeId>(t);
    TrainType(type, output.q);
    ActionSequence sequence = ExtractSequence(type, output.q);
    if (!sequence.empty()) {
      output.policy.AddType(
          {std::string(platform_.symptoms().Name(
               platform_.types().symptom_of(type))),
           sequence});
    }
    output.sequences.push_back(std::move(sequence));
  }
  return output;
}

}  // namespace aer
