// Robustness sweep: how the full pipeline holds up when the environment is
// dirtier than the calibrated default —
//   - true cross-fault noise (concurrent unrelated errors polluting
//     processes, on top of the generic-symptom noise),
//   - machine heterogeneity (per-machine repair-speed spread inflating the
//     variance of the per-type cost averages),
//   - telemetry damage (symptom events lost, timed-out actions leaving
//     retry trails — src/inject/event_perturber.h),
//   - byte-level log damage (corrupted lines re-read through the lenient
//     parser — src/inject/file_corruptor.h).
// For each arm: the noise filter's clean fraction, the platform-validation
// worst deviation (the Figure 7 criterion), and the hybrid savings.
#include <cstdio>
#include <sstream>

#include "bench_common.h"
#include "cluster/user_policy.h"
#include "common/rng.h"
#include "eval/evaluator.h"
#include "inject/event_perturber.h"
#include "inject/file_corruptor.h"
#include "mining/error_type.h"
#include "sim/platform.h"

namespace aer::bench {
namespace {

struct Arm {
  std::string name;
  double cross_fault_noise = 0.0;
  double speed_spread = 0.0;
  double drop_symptom = 0.0;      // event loss, applied to the training log
  double retry_action = 0.0;      // timeout-and-retry trails in the log
  double corrupt_fraction = 0.0;  // byte damage + lenient re-read
};

void Run() {
  Header("ext_robustness", "robustness sweep (not a paper figure)",
         "Pipeline health vs noise, heterogeneity, and injected log damage.");

  const std::vector<Arm> arms = {
      {"baseline"},
      {"cross-fault 3%", 0.03, 0.0},
      {"cross-fault 10%", 0.10, 0.0},
      {"speed spread 0.3", 0.0, 0.3},
      {"noise 3% + spread 0.3", 0.03, 0.3},
      {"event loss 10%", 0.0, 0.0, 0.10},
      {"event loss 30%", 0.0, 0.0, 0.30},
      {"action retries 15%", 0.0, 0.0, 0.0, 0.15},
      {"corrupt log 5%", 0.0, 0.0, 0.0, 0.0, 0.05},
      {"corrupt log 20%", 0.0, 0.0, 0.0, 0.0, 0.20},
      {"loss 10% + corrupt 5%", 0.0, 0.0, 0.10, 0.0, 0.05},
  };

  std::vector<std::string> labels;
  ChartSeries entries_kept{"entries kept", {}};
  ChartSeries clean_frac{"clean fraction", {}};
  ChartSeries fig7_dev{"fig7 worst dev", {}};
  ChartSeries hybrid_rel{"hybrid rel cost", {}};
  for (const Arm& arm : arms) {
    TraceConfig config = TraceConfigForScale("small");
    config.sim.num_machines = 800;
    config.sim.cross_fault_noise_probability = arm.cross_fault_noise;
    config.sim.machine_speed_spread = arm.speed_spread;
    const TraceDataset trace = GenerateTrace(config);
    const std::size_t original_entries = trace.result.log.size();

    // Injection stage: perturb the event stream, then damage the bytes and
    // recover what the lenient parser can.
    RecoveryLog log = trace.result.log;
    if (arm.drop_symptom > 0.0 || arm.retry_action > 0.0) {
      LogPerturbConfig perturb;
      perturb.drop_symptom = arm.drop_symptom;
      perturb.retry_action = arm.retry_action;
      log = PerturbLog(log, perturb);
    }
    LogParseResult parse;
    if (arm.corrupt_fraction > 0.0) {
      std::ostringstream os;
      log.Write(os);
      Rng rng(20070625);
      const std::string dirty =
          CorruptLines(os.str(), arm.corrupt_fraction, rng);
      std::istringstream is(dirty);
      RecoveryLog reread;
      parse = RecoveryLog::Read(is, reread, LogParseMode::kLenient);
      log = std::move(reread);
    }
    const double kept =
        original_entries == 0
            ? 1.0
            : static_cast<double>(log.size()) /
                  static_cast<double>(original_entries);

    auto segmented = SegmentIntoProcesses(log);
    const std::size_t total = segmented.processes.size();
    MPatternConfig mining;
    const SymptomClustering clustering(segmented.processes, mining);
    const std::vector<RecoveryProcess> clean =
        KeepCohesive(std::move(segmented.processes), clustering);
    const double clean_fraction =
        static_cast<double>(clean.size()) / static_cast<double>(total);

    // Figure-7-style validation on this arm's data.
    const ErrorTypeCatalog types(clean, 40);
    const SimulationPlatform platform(clean, types, log.symptoms());
    UserDefinedPolicy user(config.escalation);
    double worst = 0.0;
    for (const TypeEvalRow& row :
         PolicyEvaluator(platform).EvaluateFull(user, clean).rows) {
      if (row.processes < 20) continue;
      worst = std::max(worst, std::abs(row.relative_cost - 1.0));
    }

    // End-to-end savings.
    ExperimentConfig experiment = DefaultExperimentConfig();
    experiment.user_policy = config.escalation;
    const ExperimentRunner runner(clean, log.symptoms(), experiment);
    const ExperimentResult result = runner.RunOne(0.4, &GetPool());

    labels.push_back(arm.name);
    entries_kept.values.push_back(kept);
    clean_frac.values.push_back(clean_fraction);
    fig7_dev.values.push_back(worst);
    hybrid_rel.values.push_back(result.hybrid.overall_relative_cost);
    std::printf("  %-24s kept %.3f (skipped %zu, repaired %zu), clean %.3f, "
                "fig7 worst dev %.3f, hybrid rel %.4f\n",
                arm.name.c_str(), kept, parse.skipped, parse.repaired,
                clean_fraction, worst,
                result.hybrid.overall_relative_cost);
  }
  Report("ext_robustness", "arm", labels,
         {entries_kept, clean_frac, fig7_dev, hybrid_rel});

  std::printf("\nthe mining front end absorbs cross-fault noise (it filters "
              "polluted processes before training); heterogeneity widens "
              "the platform's deviation; event loss, retries and light "
              "corruption shrink the training set yet keep the hybrid "
              "savings, but heavy or stacked damage (20%% corruption, loss + "
              "corruption) can push the learned policy past the user "
              "baseline — the regime the circuit breaker exists "
              "for.\n");
  Footer();
}

}  // namespace
}  // namespace aer::bench

int main() {
  aer::bench::Run();
  return 0;
}
