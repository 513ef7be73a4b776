// Pins the exact outputs of both policy generators — the plain trainer's
// greedy read-out and the selection tree's scan — on two small fixtures,
// across the trainer configurations that steer the sweep loop. Each
// case folds into one FNV-1a fingerprint: the serialized TrainAll() policy,
// every TrainType(type, &table) Q-table, and every type's sweeps, episodes,
// converged flag, sequence and telemetry. A refactor of the training loop
// must leave every fingerprint unchanged.
//
// Every type of the three-type fixture converges at its first check to a
// one-action sequence, so both generators print the same fingerprint there;
// the mixed fixture is where their sequences, sweep counts and final-
// sequence rules diverge.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../fleet/sim_checksum.h"
#include "rl/qlearning.h"
#include "rl/selection_tree.h"
#include "three_type_fixture.h"

namespace aer {
namespace {

using aer::testing::Serialize;
using aer::testing::ThreeTypeConfig;
using aer::testing::ThreeTypeFixture;

// A harder fixture than the three-type one: every type mixes logged
// sequences of different lengths, so the greedy read-out keeps changing
// for several checks and the two generators settle on different sequences.
struct MixedFixture {
  SymptomTable symptoms;
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog catalog;
  SimulationPlatform platform;

  static std::vector<RecoveryProcess> Build() {
    constexpr auto Y = RepairAction::kTryNop;
    constexpr auto B = RepairAction::kReboot;
    constexpr auto I = RepairAction::kReimage;
    std::vector<RecoveryProcess> out;
    SimTime start = 0;
    MachineId m = 0;
    const auto add = [&](std::vector<std::pair<RepairAction, SimTime>> logged,
                         SymptomId symptom, int count) {
      for (int i = 0; i < count; ++i) {
        out.push_back(
            aer::testing::MakeThreeTypeProcess(logged, symptom, m++, start));
        start += 10;
      }
    };
    add({{Y, 900}}, 0, 25);
    add({{Y, 900}, {B, 2400}}, 0, 15);
    add({{Y, 900}, {B, 2400}, {I, 9000}}, 0, 10);
    add({{B, 2400}}, 1, 20);
    add({{B, 2400}, {I, 9000}}, 1, 20);
    add({{Y, 900}, {B, 2400}}, 1, 10);
    add({{Y, 900}, {Y, 900}}, 2, 20);
    add({{Y, 900}}, 2, 10);
    add({{Y, 900}, {Y, 900}, {B, 2400}}, 2, 15);
    return out;
  }

  MixedFixture()
      : processes(Build()),
        catalog(processes, 30),
        platform(processes, catalog, symptoms, 20) {
    symptoms.Intern("flaky");
    symptoms.Intern("hung");
    symptoms.Intern("retry");
  }

  std::size_t num_types() const { return platform.types().num_types(); }
};

struct PinCase {
  const char* name;
  TrainerConfig (*make)(std::uint64_t seed);
  int tree_stable_checks;  // SelectionTreeConfig::stable_checks
  // Recorded fingerprints over seeds 1-3, per fixture.
  std::uint64_t greedy_three_type;
  std::uint64_t tree_three_type;
  std::uint64_t greedy_mixed;
  std::uint64_t tree_mixed;
};

TrainerConfig Default(std::uint64_t seed) { return ThreeTypeConfig(seed); }

TrainerConfig DoubleQ(std::uint64_t seed) {
  TrainerConfig config = ThreeTypeConfig(seed);
  config.double_q = true;
  return config;
}

TrainerConfig TdLambda(std::uint64_t seed) {
  TrainerConfig config = ThreeTypeConfig(seed);
  config.td_lambda = 0.5;
  return config;
}

TrainerConfig FixedAlpha(std::uint64_t seed) {
  TrainerConfig config = ThreeTypeConfig(seed);
  config.fixed_alpha = 0.05;
  return config;
}

TrainerConfig Discounted(std::uint64_t seed) {
  TrainerConfig config = ThreeTypeConfig(seed);
  config.gamma = 0.95;
  return config;
}

TrainerConfig Telemetry(std::uint64_t seed) {
  TrainerConfig config = ThreeTypeConfig(seed);
  config.collect_telemetry = true;
  return config;
}

// Greedy and tree stable-check counts that differ (12 vs 3 below), so a
// generator that read the other's count would move the pin.
TrainerConfig StableChecks(std::uint64_t seed) {
  TrainerConfig config = ThreeTypeConfig(seed);
  config.stable_checks = 12;
  return config;
}

// Never converges, and the cap is not a multiple of check_every: the only
// budgets under which the greedy rule (read the final table) and the tree
// rule (keep the last check's winner) can disagree.
TrainerConfig Unconverged(std::uint64_t seed) {
  TrainerConfig config = ThreeTypeConfig(seed);
  config.max_sweeps = 1100;
  config.check_every = 200;
  config.stable_checks = 1 << 20;
  return config;
}

// The same, capped while the Q values still move fast: the tree's winner at
// the last check (sweep 50) and its scan of the final table (sweep 99)
// differ on the mixed fixture, so swapping the rules changes the pin.
TrainerConfig EarlyCap(std::uint64_t seed) {
  TrainerConfig config = Unconverged(seed);
  config.max_sweeps = 99;
  config.check_every = 50;
  return config;
}

void FoldDouble(fleet::Fnv1a64& h, double value) {
  h.Int(static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value)));
}

void FoldStat(fleet::Fnv1a64& h, const RunningStat& stat) {
  h.Int(stat.count());
  FoldDouble(h, stat.sum());
  FoldDouble(h, stat.min());
  FoldDouble(h, stat.max());
}

template <typename Trainer>
void Fold(fleet::Fnv1a64& h, const Trainer& trainer, std::size_t num_types) {
  const QLearningTrainer::TrainingOutput output = trainer.TrainAll();
  h.Bytes(Serialize(output.policy));
  h.Int(static_cast<std::int64_t>(output.per_type.size()));
  for (const TypeTrainingResult& r : output.per_type) {
    h.Int(r.type);
    h.Int(r.sweeps);
    h.Int(r.episodes);
    h.Int(r.converged ? 1 : 0);
    h.Int(static_cast<std::int64_t>(r.sequence.size()));
    for (const RepairAction a : r.sequence) h.Int(ActionIndex(a));
    h.Int(static_cast<std::int64_t>(r.states_explored));
    h.Int(r.training_processes);
    FoldStat(h, r.telemetry.temperature);
    FoldStat(h, r.telemetry.max_q_delta);
    h.Int(r.telemetry.q_updates);
    h.Int(r.telemetry.visited_state_actions);
    h.Int(r.telemetry.explorable_state_actions);
    FoldDouble(h, r.telemetry.visit_coverage);
  }
  for (std::size_t t = 0; t < num_types; ++t) {
    QTable table;
    trainer.TrainType(static_cast<ErrorTypeId>(t), &table);
    h.Bytes(Serialize(table));
  }
}

// Folds seeds 1-3 of one case: the greedy generator when `tree` is false,
// the selection tree otherwise.
template <typename Fixture>
std::uint64_t Fingerprint(const Fixture& fx, const PinCase& c, bool tree) {
  fleet::Fnv1a64 h;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const QLearningTrainer base(fx.platform, fx.processes, c.make(seed));
    if (tree) {
      SelectionTreeConfig tree_config;
      tree_config.stable_checks = c.tree_stable_checks;
      Fold(h, SelectionTreeTrainer(base, tree_config), fx.num_types());
    } else {
      Fold(h, base, fx.num_types());
    }
  }
  return h.value();
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(value));
  return buf;
}

const PinCase kCases[] = {
    {"default", Default, 5,
     0xa41aecd54d26bfd1ULL, 0xa41aecd54d26bfd1ULL,
     0xbe9a47882a6d854dULL, 0x814c61d3d90653d8ULL},
    {"double_q", DoubleQ, 5,
     0x600e015cc37b552fULL, 0x600e015cc37b552fULL,
     0x8ddaef4de9ff3a16ULL, 0x6c6b39e581f166ceULL},
    {"td_lambda", TdLambda, 5,
     0xd117131e5fc78f6dULL, 0xd117131e5fc78f6dULL,
     0x621b0290c2ef5805ULL, 0x72daf26fb09388b2ULL},
    {"fixed_alpha", FixedAlpha, 5,
     0xec2e29a2cd084022ULL, 0xec2e29a2cd084022ULL,
     0x016ccd20a76c2ec2ULL, 0x0388377fcd3ff611ULL},
    {"gamma", Discounted, 5,
     0xb47a2df51ab2d6f2ULL, 0xb47a2df51ab2d6f2ULL,
     0xf6412f2de5bc99b5ULL, 0xa422dfecc190fb69ULL},
    {"telemetry", Telemetry, 5,
     0x481764a762261ddbULL, 0x481764a762261ddbULL,
     0x321ef08bc1e8cd04ULL, 0xcc3184eddafe499fULL},
    {"stable_checks", StableChecks, 3,
     0xea80305bc9ac44d9ULL, 0xa41aecd54d26bfd1ULL,
     0x7ba47ea84b200b08ULL, 0x814c61d3d90653d8ULL},
    {"unconverged", Unconverged, 1 << 20,
     0xbe37d0aca1dffbf1ULL, 0xbe37d0aca1dffbf1ULL,
     0x545cd8c96bf253cbULL, 0xa3072f28af915e02ULL},
    {"early_cap", EarlyCap, 1 << 20,
     0x831c0ca079cc317dULL, 0x831c0ca079cc317dULL,
     0x1c11eda26e7c7341ULL, 0x4030e19c981cdc02ULL},
};

TEST(TrainerPinTest, ThreeTypeFixtureMatchesRecordedOutputs) {
  const ThreeTypeFixture fx;
  for (const PinCase& c : kCases) {
    const std::uint64_t greedy = Fingerprint(fx, c, /*tree=*/false);
    EXPECT_EQ(greedy, c.greedy_three_type)
        << c.name << " greedy: got " << Hex(greedy);
    const std::uint64_t tree = Fingerprint(fx, c, /*tree=*/true);
    EXPECT_EQ(tree, c.tree_three_type) << c.name << " tree: got " << Hex(tree);
  }
}

TEST(TrainerPinTest, MixedFixtureMatchesRecordedOutputs) {
  const MixedFixture fx;
  for (const PinCase& c : kCases) {
    const std::uint64_t greedy = Fingerprint(fx, c, /*tree=*/false);
    EXPECT_EQ(greedy, c.greedy_mixed)
        << c.name << " greedy: got " << Hex(greedy);
    const std::uint64_t tree = Fingerprint(fx, c, /*tree=*/true);
    EXPECT_EQ(tree, c.tree_mixed) << c.name << " tree: got " << Hex(tree);
  }
}

}  // namespace
}  // namespace aer
