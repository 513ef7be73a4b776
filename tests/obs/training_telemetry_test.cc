// Training-telemetry contract: collecting telemetry never perturbs the
// trained policy (observation only — no extra RNG draws), and the published
// aer_training_* snapshot is byte-identical whether the sweeps ran serially
// or through TrainAll(pool) at any thread count (types merge in catalog
// order, docs/OBSERVABILITY.md).
#include "rl/telemetry.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "rl/qlearning.h"
#include "rl/selection_tree.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;

RecoveryProcess MakeProcess(
    std::vector<std::pair<RepairAction, SimTime>> attempts_with_costs,
    SymptomId symptom, MachineId machine, SimTime start) {
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

struct Fixture {
  SymptomTable symptoms;
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog catalog;
  SimulationPlatform platform;

  static std::vector<RecoveryProcess> Build() {
    std::vector<RecoveryProcess> out;
    SimTime start = 0;
    MachineId m = 0;
    for (int i = 0; i < 40; ++i) {
      out.push_back(MakeProcess({{Y, 900}, {B, 2400}}, 0, m++, start));
      start += 10;
    }
    for (int i = 0; i < 30; ++i) {
      out.push_back(MakeProcess({{Y, 900}}, 1, m++, start));
      start += 10;
    }
    for (int i = 0; i < 20; ++i) {
      out.push_back(MakeProcess({{B, 2400}, {I, 9000}}, 2, m++, start));
      start += 10;
    }
    return out;
  }

  Fixture()
      : processes(Build()),
        catalog(processes, 30),
        platform(processes, catalog, symptoms, 20) {
    symptoms.Intern("stuck");
    symptoms.Intern("transient");
    symptoms.Intern("disk");
  }
};

TrainerConfig ConfigWithSeed(std::uint64_t seed, bool telemetry) {
  TrainerConfig config;
  config.max_sweeps = 2000;
  config.min_sweeps = 500;
  config.check_every = 100;
  config.stable_checks = 5;
  config.seed = seed;
  config.collect_telemetry = telemetry;
  return config;
}

std::string Serialize(const TrainedPolicy& policy) {
  std::ostringstream os;
  policy.Write(os);
  return os.str();
}

std::string DeterministicSnapshot(
    const std::vector<TypeTrainingResult>& per_type) {
  obs::MetricsRegistry registry;
  PublishTrainingTelemetry(registry, per_type);
  obs::MetricsRegistry::ExportOptions options;
  options.include_volatile = false;
  return registry.ExportText(options);
}

TEST(TrainingTelemetryTest, CollectionDoesNotPerturbThePolicy) {
  const Fixture fx;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const QLearningTrainer plain(fx.platform, fx.processes,
                                 ConfigWithSeed(seed, false));
    const QLearningTrainer observed(fx.platform, fx.processes,
                                    ConfigWithSeed(seed, true));
    const auto plain_output = plain.TrainAll();
    const auto observed_output = observed.TrainAll();
    EXPECT_EQ(Serialize(observed_output.policy),
              Serialize(plain_output.policy))
        << "seed " << seed << ": telemetry collection changed the policy";
    // Off means off: no telemetry accumulates without the flag.
    for (const TypeTrainingResult& r : plain_output.per_type) {
      EXPECT_EQ(r.telemetry.q_updates, 0);
      EXPECT_EQ(r.telemetry.temperature.count(), 0);
    }
  }
}

TEST(TrainingTelemetryTest, TelemetryIsPopulatedAndSane) {
  const Fixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes,
                                 ConfigWithSeed(5, true));
  const auto output = trainer.TrainAll();
  ASSERT_FALSE(output.per_type.empty());
  for (const TypeTrainingResult& r : output.per_type) {
    const TypeTelemetry& t = r.telemetry;
    EXPECT_GT(t.q_updates, 0) << "type " << r.type;
    EXPECT_EQ(t.temperature.count(), r.episodes) << "type " << r.type;
    EXPECT_EQ(t.max_q_delta.count(), r.episodes) << "type " << r.type;
    // Temperature anneals downward across sweeps.
    EXPECT_GT(t.temperature.max(), t.temperature.min()) << "type " << r.type;
    EXPECT_GT(t.visited_state_actions, 0) << "type " << r.type;
    EXPECT_GE(t.explorable_state_actions, t.visited_state_actions)
        << "type " << r.type;
    EXPECT_GT(t.visit_coverage, 0.0) << "type " << r.type;
    EXPECT_LE(t.visit_coverage, 1.0) << "type " << r.type;
  }
}

TEST(TrainingTelemetryTest, ParallelSnapshotsByteIdenticalToSerial) {
  const Fixture fx;
  for (const std::uint64_t seed : {1, 4}) {
    const QLearningTrainer trainer(fx.platform, fx.processes,
                                   ConfigWithSeed(seed, true));
    const std::string serial = DeterministicSnapshot(
        trainer.TrainAll().per_type);
    EXPECT_FALSE(serial.empty());
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      EXPECT_EQ(DeterministicSnapshot(trainer.TrainAll(&pool).per_type),
                serial)
          << "seed " << seed << ", " << threads
          << " threads: published telemetry diverged from serial";
    }
  }
}

TEST(TrainingTelemetryTest, TreeTrainerTelemetryDeterministicAcrossThreads) {
  const Fixture fx;
  const QLearningTrainer base(fx.platform, fx.processes,
                              ConfigWithSeed(9, true));
  const SelectionTreeTrainer tree(base, SelectionTreeConfig{});
  const std::string serial = DeterministicSnapshot(tree.TrainAll().per_type);
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(DeterministicSnapshot(tree.TrainAll(&pool).per_type), serial)
        << threads << " threads";
  }
}

// bench_training publishes type by type (so a TimeSeriesRecorder window can
// sit between types); the registry must come out byte-identical to the
// one-shot full-vector call.
TEST(TrainingTelemetryTest, IncrementalPublicationMatchesOneShot) {
  const Fixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes,
                                 ConfigWithSeed(7, true));
  const auto output = trainer.TrainAll();
  ASSERT_FALSE(output.per_type.empty());

  obs::MetricsRegistry one_shot;
  PublishTrainingTelemetry(one_shot, output.per_type);
  obs::MetricsRegistry incremental;
  for (const TypeTrainingResult& result : output.per_type) {
    PublishTypeTelemetry(incremental, result);
  }
  PublishTrainingSummary(incremental, output.per_type);

  obs::MetricsRegistry::ExportOptions options;
  options.include_volatile = false;
  EXPECT_EQ(incremental.ExportText(options), one_shot.ExportText(options));
}

TEST(TrainingTelemetryTest, ThroughputGaugeIsVolatile) {
  obs::MetricsRegistry registry;
  PublishTrainingThroughput(registry, 1234.5);
  obs::MetricsRegistry::ExportOptions deterministic;
  deterministic.include_volatile = false;
  EXPECT_EQ(registry.ExportText(deterministic), "");
  EXPECT_NE(registry.ExportText().find("aer_training_episodes_per_sec"),
            std::string::npos);
}

}  // namespace
}  // namespace aer
