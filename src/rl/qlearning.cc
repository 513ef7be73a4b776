#include "rl/qlearning.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/profiler.h"
#include "common/thread_pool.h"

namespace aer {

QTable MergeTablesByMean(const QTable& a, const QTable& b) {
  QTable merged;
  const auto add = [&merged](const QTable& src, const QTable& other) {
    for (const auto& [key, entries] : src.raw()) {
      for (int i = 0; i < kNumActions; ++i) {
        const RepairAction action = ActionFromIndex(i);
        if (entries[static_cast<std::size_t>(i)].visits == 0) continue;
        if (merged.Has(key, action)) continue;  // already merged from `src`
        const double qa = src.Q(key, action);
        const double value =
            other.Has(key, action) ? 0.5 * (qa + other.Q(key, action)) : qa;
        merged.Update(key, action, value);  // first update adopts the value
      }
    }
  };
  add(a, b);
  add(b, a);
  return merged;
}

ActionSequence GreedySequence(const QTable& table, ErrorTypeId type,
                              int max_actions) {
  ActionSequence sequence;
  while (static_cast<int>(sequence.size()) < max_actions) {
    const StateKey s = EncodeState(type, sequence);
    const auto best = table.BestAction(s);
    if (!best.has_value()) break;
    sequence.push_back(*best);
    if (*best == RepairAction::kRma) break;  // manual repair is absorbing
  }
  return sequence;
}

QLearningTrainer::QLearningTrainer(const SimulationPlatform& platform,
                                   std::span<const RecoveryProcess> training,
                                   TrainerConfig config)
    : platform_(platform),
      config_(config),
      by_type_(platform.types().num_types()) {
  AER_CHECK_GE(config_.max_actions, 2);
  AER_CHECK_LE(static_cast<std::size_t>(config_.max_actions),
               kMaxTriedActions);
  AER_CHECK_GT(config_.max_sweeps, 0);
  AER_CHECK_GE(config_.min_sweeps, 0);
  AER_CHECK_GT(config_.check_every, 0);
  AER_CHECK_GT(config_.stable_checks, 0);
  AER_CHECK_GT(config_.gamma, 0.0);
  AER_CHECK_LE(config_.gamma, 1.0);
  AER_CHECK_GE(config_.td_lambda, 0.0);
  AER_CHECK_LE(config_.td_lambda, 1.0);
  for (const RecoveryProcess& p : training) {
    if (p.attempts().empty()) continue;
    const ErrorTypeId t = platform.types().Classify(p);
    if (t == kInvalidErrorType) continue;
    by_type_[static_cast<std::size_t>(t)].push_back(&p);
  }
}

std::span<const RecoveryProcess* const> QLearningTrainer::processes_of(
    ErrorTypeId type) const {
  AER_CHECK_GE(type, 0);
  AER_CHECK_LT(static_cast<std::size_t>(type), by_type_.size());
  return by_type_[static_cast<std::size_t>(type)];
}

void QLearningTrainer::FillCoverage(ErrorTypeId type, const QTable& table,
                                    TypeTelemetry& telemetry) const {
  std::int64_t visited = 0;
  for (const auto& [key, entries] : table.raw()) {
    for (const auto& entry : entries) {
      if (entry.visits > 0) ++visited;
    }
  }
  const std::int64_t allowed = static_cast<std::int64_t>(
      platform_.estimator().ObservedActions(type).size());
  telemetry.visited_state_actions = visited;
  telemetry.explorable_state_actions =
      static_cast<std::int64_t>(table.num_states()) * allowed;
  telemetry.visit_coverage =
      telemetry.explorable_state_actions > 0
          ? static_cast<double>(visited) /
                static_cast<double>(telemetry.explorable_state_actions)
          : 0.0;
}

void QLearningTrainer::RunSweep(ErrorTypeId type,
                                std::span<const RecoveryProcess* const> processes,
                                std::int64_t sweep, QTable& table, Rng& rng,
                                QTable* table_b,
                                TypeTelemetry* telemetry) const {
  // SelectProcess: uniform over the type's training processes.
  const RecoveryProcess& p = *processes[rng.NextBounded(processes.size())];
  ProcessReplay replay(p, type, platform_.estimator(),
                       platform_.capabilities());

  const std::vector<RepairAction>& allowed =
      platform_.estimator().ObservedActions(type);
  AER_CHECK(!allowed.empty());
  const double temperature = config_.temperature.At(sweep);

  // Unexplored (s, a) pairs are priced at the action's immediate success
  // cost — the admissible optimistic bound (a cure can never cost less than
  // executing the action once). Initializing at 0 instead makes long chains
  // of cheap actions look free, and with α = 1/(1+visits) the inflated
  // optimism unwinds too slowly to ever recover.
  std::array<double, kNumActions> init_q;
  for (RepairAction a : kAllActions) {
    init_q[static_cast<std::size_t>(ActionIndex(a))] =
        platform_.estimator().EstimateCost(type, a, /*success=*/true);
  }
  using Entries = std::array<QTable::Entry, kNumActions>;
  const auto q_of = [&](const Entries* entries, RepairAction a) {
    const auto i = static_cast<std::size_t>(ActionIndex(a));
    return entries != nullptr && (*entries)[i].visits > 0 ? (*entries)[i].q
                                                          : init_q[i];
  };
  // Fills `values` with the behaviour values of the allowed actions in state
  // `s`, one look-up per table: the single table, or the mean of both under
  // Double Q.
  AER_CHECK_LE(allowed.size(), static_cast<std::size_t>(kNumActions));
  std::array<double, kNumActions> values = {};
  const std::span<const double> allowed_values(values.data(), allowed.size());
  const auto read_values = [&](StateKey s) {
    const Entries* a_entries = table.Find(s);
    const Entries* b_entries = table_b == nullptr ? nullptr : table_b->Find(s);
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      const double qa = q_of(a_entries, allowed[i]);
      values[i] =
          table_b == nullptr ? qa : 0.5 * (qa + q_of(b_entries, allowed[i]));
    }
  };
  const auto min_q_or_init = [&](StateKey s) {
    read_values(s);
    double best = values[0];
    for (std::size_t i = 1; i < allowed.size(); ++i) {
      best = std::min(best, values[i]);
    }
    return best;
  };

  struct Transition {
    StateKey state;
    RepairAction action;
    double cost;
    StateKey next;
    bool terminal;
  };
  // An episode takes at most max_actions <= kMaxTriedActions steps (the
  // constructor checks the bound), so both buffers live on the stack.
  std::array<Transition, kMaxTriedActions> episode = {};
  std::array<RepairAction, kMaxTriedActions> tried = {};
  std::size_t T = 0;  // steps taken so far

  // Explore different recovery actions until the simulated machine is
  // healthy; the last slot is always manual repair.
  while (!replay.cured()) {
    const StateKey s = EncodeState(type, std::span(tried).first(T));
    RepairAction a;
    if (static_cast<int>(T) >= config_.max_actions - 1) {
      a = RepairAction::kRma;
    } else {
      read_values(s);
      a = allowed[SampleBoltzmann(allowed_values, temperature, rng)];
    }
    const ProcessReplay::StepResult step = replay.Step(a);
    tried[T] = a;
    const StateKey next = EncodeState(type, std::span(tried).first(T + 1));
    episode[T++] = {s, a, step.cost, next, step.cured};
  }

  // UpdateQfunction for every two successive states along the sequence
  // (forward order as in the paper's Figure 2). With td_lambda = 0 the
  // target is the paper's one-step cost + min-Q; otherwise the forward-view
  // λ-return mixes all n-step lookaheads of the episode.
  const double gamma = config_.gamma;
  const double lambda = config_.td_lambda;

  // Telemetry is observation-only: it reads the deltas Update() already
  // computes and draws nothing from the RNG, so collecting it cannot change
  // the trained bytes.
  double max_delta = 0.0;
  const auto record_sweep = [&]() {
    if (telemetry == nullptr) return;
    telemetry->temperature.Add(temperature);
    telemetry->max_q_delta.Add(max_delta);
    telemetry->q_updates += static_cast<std::int64_t>(T);
  };

  if (table_b != nullptr) {
    // Double Q-learning (TD(0) only): per transition, flip which table is
    // updated; the selected bootstrap action comes from the updated table,
    // its value from the other, decoupling selection from valuation.
    AER_CHECK_EQ(lambda, 0.0);
    for (std::size_t t = 0; t < T; ++t) {
      QTable& update_table = rng.NextBool(0.5) ? table : *table_b;
      QTable& value_table = &update_table == &table ? *table_b : table;
      double future = 0.0;
      if (!episode[t].terminal) {
        const Entries* update_entries = update_table.Find(episode[t].next);
        RepairAction chosen = allowed.front();
        double chosen_q = q_of(update_entries, chosen);
        for (std::size_t i = 1; i < allowed.size(); ++i) {
          const double q = q_of(update_entries, allowed[i]);
          if (q < chosen_q) {
            chosen_q = q;
            chosen = allowed[i];
          }
        }
        future = q_of(value_table.Find(episode[t].next), chosen);
      }
      const double delta =
          update_table.Update(episode[t].state, episode[t].action,
                              episode[t].cost + gamma * future);
      max_delta = std::max(max_delta, std::abs(delta));
    }
    record_sweep();
    return;
  }

  for (std::size_t t = 0; t < T; ++t) {
    // G_t^{(n)} accumulated incrementally: costs of steps t..t+n-1 plus the
    // bootstrapped value at t+n (0 at the terminal). Weights: (1-λ)·λ^{n-1}
    // for the interior returns, λ^{T-t-1} for the final one (the remaining
    // mass, so they sum to exactly 1 — and λ = 1 cleanly degenerates to the
    // Monte-Carlo return). Once λ^{n-1} is 0 the later returns weigh
    // nothing: λ = 0 stops after G_t^{(1)} = cost + γ·min-Q, the same double
    // as the paper's one-step target.
    double discounted_costs = 0.0;
    double discount = 1.0;
    double lambda_pow = 1.0;  // λ^{n-1}
    double target = 0.0;
    for (std::size_t n = 1; t + n <= T; ++n) {
      const Transition& step = episode[t + n - 1];
      discounted_costs += discount * step.cost;
      discount *= gamma;
      const double bootstrap = step.terminal ? 0.0 : min_q_or_init(step.next);
      const double g_n = discounted_costs + discount * bootstrap;
      if (t + n == T) {
        target += lambda_pow * g_n;
      } else {
        target += (1.0 - lambda) * lambda_pow * g_n;
        lambda_pow *= lambda;
        if (lambda_pow == 0.0) break;
      }
    }
    const double delta =
        table.Update(episode[t].state, episode[t].action, target);
    max_delta = std::max(max_delta, std::abs(delta));
  }
  record_sweep();
}

TypeTrainingResult QLearningTrainer::TrainType(ErrorTypeId type,
                                               QTable* table_out) const {
  return TrainTypeWith(
      type,
      [this, type](const QTable& view) {
        return GreedySequence(view, type, config_.max_actions);
      },
      config_.stable_checks, FinalSequence::kRegenerate, table_out);
}

TypeTrainingResult QLearningTrainer::TrainTypeWith(
    ErrorTypeId type, const SequenceGenerator& generate, int stable_checks,
    FinalSequence final_rule, QTable* table_out) const {
  AER_PROFILE_SCOPE("train_type");
  const auto processes = processes_of(type);
  TypeTrainingResult result;
  result.type = type;
  result.training_processes = static_cast<std::int64_t>(processes.size());
  if (processes.empty()) return result;

  // One stream per (master seed, type): a type's draws depend on nothing
  // else, so types can train in any order — or on any thread — and still
  // produce the exact bytes the serial path produces.
  Rng rng(DeriveStream(config_.seed, static_cast<std::uint64_t>(type)));
  QTable table(config_.fixed_alpha);
  QTable table_b(config_.fixed_alpha);  // Double Q twin (unused otherwise)
  AER_CHECK(!config_.double_q || config_.td_lambda == 0.0);

  ActionSequence stable_sequence;
  std::int64_t stable_since = 0;  // sweep at which stable_sequence appeared
  int checks_unchanged = 0;

  TypeTelemetry* telemetry =
      config_.collect_telemetry ? &result.telemetry : nullptr;

  std::int64_t sweep = 0;
  for (; sweep < config_.max_sweeps; ++sweep) {
    RunSweep(type, processes, sweep, table, rng,
             config_.double_q ? &table_b : nullptr, telemetry);
    if ((sweep + 1) % config_.check_every != 0) continue;

    // Under Double Q the generated policy reads the merged (averaged) tables.
    ActionSequence sequence = config_.double_q
                                  ? generate(MergeTablesByMean(table, table_b))
                                  : generate(table);
    if (!sequence.empty() && sequence == stable_sequence) {
      ++checks_unchanged;
    } else {
      stable_sequence = std::move(sequence);
      stable_since = sweep + 1;
      checks_unchanged = 1;
    }
    if (checks_unchanged >= stable_checks &&
        sweep + 1 >= config_.min_sweeps) {
      result.converged = true;
      break;
    }
  }

  result.sweeps = result.converged ? stable_since : config_.max_sweeps;
  result.episodes = sweep < config_.max_sweeps ? sweep + 1 : config_.max_sweeps;
  QTable final_table =
      config_.double_q ? MergeTablesByMean(table, table_b) : std::move(table);
  const bool keep_last_check =
      final_rule == FinalSequence::kLastCheck && !stable_sequence.empty();
  result.sequence =
      keep_last_check ? std::move(stable_sequence) : generate(final_table);
  result.states_explored = final_table.num_states();
  if (telemetry != nullptr) FillCoverage(type, final_table, *telemetry);
  if (table_out != nullptr) *table_out = std::move(final_table);
  return result;
}

QLearningTrainer::TrainingOutput QLearningTrainer::TrainAll(
    ThreadPool* pool, std::vector<QTable>* tables_out) const {
  return TrainAllWith(pool, tables_out,
                      [this](ErrorTypeId type, QTable* table_out) {
                        return TrainType(type, table_out);
                      });
}

QLearningTrainer::TrainingOutput QLearningTrainer::TrainAllWith(
    ThreadPool* pool, std::vector<QTable>* tables_out,
    const std::function<TypeTrainingResult(ErrorTypeId, QTable*)>&
        train_type) const {
  AER_PROFILE_SCOPE("train_all");
  const std::size_t num_types = by_type_.size();

  // The types: each builds its own RNG, Q-table(s) and episode buffers and
  // reads only the shared immutable platform, so a pool may run them in any
  // order on any thread.
  std::vector<TypeTrainingResult> per_type(num_types);
  std::vector<QTable> tables(tables_out != nullptr ? num_types : 0);
  const auto train = [&](std::size_t t) {
    per_type[t] = train_type(static_cast<ErrorTypeId>(t),
                             tables_out != nullptr ? &tables[t] : nullptr);
  };
  ParallelFor(pool, num_types, train);

  // The merge, single-threaded in catalog order, so AddType() interns
  // symptom names in the same order for any thread count.
  TrainingOutput output;
  for (std::size_t t = 0; t < num_types; ++t) {
    if (!per_type[t].sequence.empty()) {
      output.policy.AddType(
          {std::string(platform_.symptoms().Name(
               platform_.types().symptom_of(static_cast<ErrorTypeId>(t)))),
           per_type[t].sequence});
    }
    output.per_type.push_back(std::move(per_type[t]));
  }
  if (tables_out != nullptr) *tables_out = std::move(tables);
  return output;
}

}  // namespace aer
