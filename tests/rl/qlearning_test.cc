#include "rl/qlearning.h"

#include <gtest/gtest.h>

#include "support/state_format.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;
constexpr auto A = RepairAction::kRma;

RecoveryProcess MakeProcess(std::vector<std::pair<RepairAction, SimTime>>
                                attempts_with_costs,
                            SymptomId symptom, MachineId machine,
                            SimTime start) {
  std::vector<SymptomEvent> symptoms = {{start, symptom}};
  std::vector<ActionAttempt> attempts;
  SimTime t = start + 50;
  for (const auto& [action, cost] : attempts_with_costs) {
    attempts.push_back({action, t, cost, false});
    t += cost;
  }
  attempts.back().cured = true;
  return RecoveryProcess(machine, std::move(symptoms), std::move(attempts),
                         t);
}

// A training set with two error types:
//  - symptom 0 "stuck": TRYNOP useless, REBOOT cures (logged [Y,B]);
//  - symptom 1 "transient": TRYNOP cures 80% (logged [Y] or [Y. Y->B]).
struct TrainingFixture {
  SymptomTable symptoms;
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog catalog;
  SimulationPlatform platform;

  static std::vector<RecoveryProcess> Build() {
    std::vector<RecoveryProcess> out;
    SimTime start = 0;
    MachineId m = 0;
    for (int i = 0; i < 60; ++i) {
      out.push_back(MakeProcess({{Y, 900}, {B, 2400}}, 0, m++, start));
      start += 10;
    }
    for (int i = 0; i < 48; ++i) {
      out.push_back(MakeProcess({{Y, 900}}, 1, m++, start));
      start += 10;
    }
    for (int i = 0; i < 12; ++i) {
      out.push_back(MakeProcess({{Y, 900}, {B, 2400}}, 1, m++, start));
      start += 10;
    }
    return out;
  }

  TrainingFixture()
      : processes(Build()),
        catalog(processes, 40),
        platform(processes, catalog, symptoms, 20) {
    symptoms.Intern("stuck");      // id 0
    symptoms.Intern("transient");  // id 1
  }
};

TrainerConfig FastConfig() {
  TrainerConfig config;
  config.max_sweeps = 20000;
  config.min_sweeps = 2000;
  config.check_every = 100;
  config.stable_checks = 10;
  config.seed = 42;
  return config;
}

TEST(GreedySequenceTest, FollowsMinQAndStopsAtRma) {
  QTable table;
  const ErrorTypeId type = 0;
  table.Update(EncodeState(type, {}), B, 100.0);
  table.Update(EncodeState(type, {}), Y, 200.0);
  std::vector<RepairAction> after_b = {B};
  table.Update(EncodeState(type, after_b), A, 50.0);
  const ActionSequence seq = GreedySequence(table, type, 20);
  EXPECT_EQ(seq, (ActionSequence{B, A}));
}

TEST(GreedySequenceTest, StopsAtUnexploredState) {
  QTable table;
  table.Update(EncodeState(0, {}), I, 10.0);
  const ActionSequence seq = GreedySequence(table, 0, 20);
  EXPECT_EQ(seq, (ActionSequence{I}));
}

TEST(GreedySequenceTest, RespectsMaxActions) {
  QTable table;
  // Y always best at every prefix of Ys.
  std::vector<RepairAction> tried;
  for (int i = 0; i < 10; ++i) {
    table.Update(EncodeState(0, tried), Y, 10.0);
    tried.push_back(Y);
  }
  EXPECT_EQ(GreedySequence(table, 0, 3).size(), 3u);
}

TEST(QLearningTrainerTest, LearnsRebootFirstForStuckType) {
  TrainingFixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes, FastConfig());
  const ErrorTypeId stuck = fx.catalog.ClassifySymptom(0);
  const TypeTrainingResult result = trainer.TrainType(stuck);
  ASSERT_FALSE(result.sequence.empty());
  EXPECT_EQ(result.sequence.front(), B)
      << "the trained policy should start with the stronger action";
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.states_explored, 1u);
  EXPECT_EQ(result.training_processes, 60);
}

TEST(QLearningTrainerTest, KeepsCheapestFirstForTransientType) {
  TrainingFixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes, FastConfig());
  const ErrorTypeId transient = fx.catalog.ClassifySymptom(1);
  const TypeTrainingResult result = trainer.TrainType(transient);
  ASSERT_FALSE(result.sequence.empty());
  EXPECT_EQ(result.sequence.front(), Y)
      << "80% of incidents are cured by the cheap action; keep it first";
}

TEST(QLearningTrainerTest, DeterministicForSeed) {
  TrainingFixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes, FastConfig());
  const TypeTrainingResult a = trainer.TrainType(0);
  const TypeTrainingResult b = trainer.TrainType(0);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.states_explored, b.states_explored);
}

TEST(QLearningTrainerTest, TrainAllProducesPolicyForEveryType) {
  TrainingFixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes, FastConfig());
  const auto output = trainer.TrainAll();
  EXPECT_EQ(output.per_type.size(), fx.catalog.num_types());
  EXPECT_EQ(output.policy.num_types(), fx.catalog.num_types());
  EXPECT_NE(output.policy.FindType("stuck"), nullptr);
  EXPECT_NE(output.policy.FindType("transient"), nullptr);
}

TEST(QLearningTrainerTest, QValuesApproximateEpisodeCosts) {
  TrainingFixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes, FastConfig());
  QTable table;
  const ErrorTypeId stuck = fx.catalog.ClassifySymptom(0);
  trainer.TrainType(stuck, &table);
  const StateKey root = EncodeState(stuck, {});
  // Q(root, B): REBOOT cures every stuck incident at its actual cost 2400.
  ASSERT_TRUE(table.Has(root, B));
  EXPECT_NEAR(table.Q(root, B), 2400.0, 120.0);
  // Q(root, Y): wasted watch (900) then optimal continuation (2400).
  ASSERT_TRUE(table.Has(root, Y));
  EXPECT_NEAR(table.Q(root, Y), 3300.0, 200.0);
}

TEST(QLearningTrainerTest, ExplorationRestrictedToObservedActions) {
  TrainingFixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes, FastConfig());
  QTable table;
  const ErrorTypeId stuck = fx.catalog.ClassifySymptom(0);
  trainer.TrainType(stuck, &table);
  // REIMAGE/RMA never appear in the stuck type's log (the N-cap's forced
  // manual repair never fires because REBOOT always cures first), so no Q
  // entry may mention them.
  for (const auto& [state, entries] : table.raw()) {
    EXPECT_EQ(entries[ActionIndex(I)].visits, 0) << FormatState(state);
    EXPECT_EQ(entries[ActionIndex(A)].visits, 0) << FormatState(state);
  }
}

TEST(QLearningTrainerTest, EmptyTypeYieldsEmptyResult) {
  TrainingFixture fx;
  // Catalog with a type that has no processes: classify symptom 2 is absent;
  // simulate by training a type id with no members — use a catalog from a
  // subset.
  const ErrorTypeCatalog catalog(
      std::span<const RecoveryProcess>(fx.processes.data(),
                                       fx.processes.size()),
      40);
  // All types have processes here, so instead check the trainer handles a
  // type whose processes all lack attempts: craft one.
  std::vector<RecoveryProcess> with_empty;
  with_empty.push_back(RecoveryProcess(
      0, {{0, 0}}, std::vector<ActionAttempt>{}, 10));  // no actions
  const ErrorTypeCatalog cat2(with_empty, 40);
  const SymptomTable symptoms;
  const SimulationPlatform platform(with_empty, cat2, symptoms, 20);
  const QLearningTrainer trainer(platform, with_empty, FastConfig());
  const TypeTrainingResult result = trainer.TrainType(0);
  EXPECT_TRUE(result.sequence.empty());
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.training_processes, 0);
}

TEST(QLearningTrainerDeathTest, RejectsNonPositiveSweepBudget) {
  const TrainingFixture fx;
  TrainerConfig zero = FastConfig();
  zero.max_sweeps = 0;
  EXPECT_DEATH(QLearningTrainer(fx.platform, fx.processes, zero),
               "AER_CHECK_GT failed: config_.max_sweeps > 0");
  TrainerConfig negative = FastConfig();
  negative.max_sweeps = -5;
  EXPECT_DEATH(QLearningTrainer(fx.platform, fx.processes, negative),
               "AER_CHECK_GT failed: config_.max_sweeps > 0");
  TrainerConfig negative_min = FastConfig();
  negative_min.min_sweeps = -1;
  EXPECT_DEATH(QLearningTrainer(fx.platform, fx.processes, negative_min),
               "AER_CHECK_GE failed: config_.min_sweeps >= 0");
}

}  // namespace
}  // namespace aer
