// The three-error-type training fixture shared by the trainer equivalence
// and pin tests: three types with distinct optimal sequences, so the
// catalog-order merge has real per-type structure to preserve.
#ifndef AER_TESTS_RL_THREE_TYPE_FIXTURE_H_
#define AER_TESTS_RL_THREE_TYPE_FIXTURE_H_

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rl/qlearning.h"

namespace aer::testing {

inline RecoveryProcess MakeThreeTypeProcess(
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

struct ThreeTypeFixture {
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
    for (int i = 0; i < 40; ++i) {
      out.push_back(
          MakeThreeTypeProcess({{Y, 900}, {B, 2400}}, 0, m++, start));
      start += 10;
    }
    for (int i = 0; i < 30; ++i) {
      out.push_back(MakeThreeTypeProcess({{Y, 900}}, 1, m++, start));
      start += 10;
    }
    for (int i = 0; i < 20; ++i) {
      out.push_back(
          MakeThreeTypeProcess({{B, 2400}, {I, 9000}}, 2, m++, start));
      start += 10;
    }
    return out;
  }

  ThreeTypeFixture()
      : processes(Build()),
        catalog(processes, 30),
        platform(processes, catalog, symptoms, 20) {
    symptoms.Intern("stuck");
    symptoms.Intern("transient");
    symptoms.Intern("disk");
  }

  std::size_t num_types() const { return platform.types().num_types(); }
};

// A short budget every fixture type converges within.
inline TrainerConfig ThreeTypeConfig(std::uint64_t seed) {
  TrainerConfig config;
  config.max_sweeps = 4000;
  config.min_sweeps = 500;
  config.check_every = 100;
  config.stable_checks = 5;
  config.seed = seed;
  return config;
}

inline std::string Serialize(const TrainedPolicy& policy) {
  std::ostringstream os;
  policy.Write(os);
  return os.str();
}

inline std::string Serialize(const QTable& table) {
  std::ostringstream os;
  table.Write(os);
  return os.str();
}

}  // namespace aer::testing

#endif  // AER_TESTS_RL_THREE_TYPE_FIXTURE_H_
