// Extension (paper Section 7): "designing initial policies that can be
// improved". The learned optimum is *local* — reachable only through
// actions the original policy ever tried — so the starting policy matters.
// This bench generates a trace under three different hand-written baselines
// and reports each baseline's mean downtime and the hybrid policy's
// relative cost against it:
//
//   cheapest-first   the paper's production policy (T, B, B, I, I, RMA...)
//   impatient        one try per level, escalates fast
//   reimage-happy    skips REBOOT entirely and reimages early (wasteful,
//                    but it gives the learner rich strong-action data)
#include <cstdio>

#include "bench_common.h"

namespace aer::bench {
namespace {

struct Baseline {
  std::string name;
  EscalationConfig escalation;
};

void Run() {
  Header("ext_initial_policies", "Section 7 extension (initial policies)",
         "Hybrid savings at train fraction 0.4 when the original "
         "user-defined policy differs.");

  std::vector<Baseline> baselines;
  baselines.push_back({"cheapest-first", EscalationConfig{}});
  {
    EscalationConfig impatient;
    impatient.max_tries = {1, 1, 1, 1000};
    baselines.push_back({"impatient", impatient});
  }
  {
    EscalationConfig reimage_happy;
    reimage_happy.max_tries = {1, 0, 2, 1000};  // never reboots
    baselines.push_back({"reimage-happy", reimage_happy});
  }

  std::vector<std::string> labels;
  ChartSeries baseline_mttr{"baseline mean downtime (s)", {}};
  ChartSeries hybrid_rel{"hybrid rel cost", {}};
  for (const Baseline& baseline : baselines) {
    TraceConfig config = TraceConfigForScale("small");
    config.sim.num_machines = 800;
    config.escalation = baseline.escalation;
    const TraceDataset trace = GenerateTrace(config);

    auto segmented = SegmentIntoProcesses(trace.result.log);
    MPatternConfig mining;
    const SymptomClustering clustering(segmented.processes, mining);
    const std::vector<RecoveryProcess> clean =
        KeepCohesive(std::move(segmented.processes), clustering);

    ExperimentConfig experiment = DefaultExperimentConfig();
    experiment.user_policy = baseline.escalation;
    const ExperimentRunner runner(clean, trace.result.log.symptoms(),
                                  experiment);
    const ExperimentResult result = runner.RunOne(0.4, &GetPool());

    labels.push_back(baseline.name);
    baseline_mttr.values.push_back(
        static_cast<double>(trace.result.total_downtime) /
        static_cast<double>(trace.result.processes_completed));
    hybrid_rel.values.push_back(result.hybrid.overall_relative_cost);
    std::printf("  %-16s baseline MTTR %6.0f s -> hybrid keeps %.1f%% of "
                "its downtime (coverage %.1f%%)\n",
                baseline.name.c_str(), baseline_mttr.values.back(),
                100.0 * result.hybrid.overall_relative_cost,
                100.0 * result.hybrid.overall_coverage);
  }
  Report("ext_initial_policies", "baseline", labels,
         {baseline_mttr, hybrid_rel});

  std::printf("\nhybrid rel cost = the hybrid's replayed downtime over the "
              "baseline's own, on that baseline's log: lower means the "
              "learner saved more from that starting policy.\n");
  Footer();
}

}  // namespace
}  // namespace aer::bench

int main() {
  aer::bench::Run();
  return 0;
}
