// Quickstart: learn a recovery policy from a recovery log in ~5 calls.
//
//   1. Get a recovery log (here: synthesized by the bundled cluster
//      simulator; in production: your monitoring system's event stream).
//   2. PolicyGenerator::Generate() — segmentation, symptom clustering,
//      noise filtering, error-type induction and Q-learning, end to end.
//   3. Wrap the result in a HybridPolicy so every error state stays covered.
//   4. Evaluate the policy on held-out incidents.
//   5. Save the policy to a file for deployment.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <sstream>

#include "core/policy_generator.h"
#include "eval/experiment.h"
#include "fleet/trace.h"
#include "mining/symptom_clusters.h"

int main() {
  // --- 1. A recovery log: <time, machine, description> entries ------------
  aer::TraceConfig trace_config = aer::TraceConfigForScale("small");
  const aer::TraceDataset dataset = aer::GenerateTrace(trace_config);
  std::printf("recovery log: %zu entries from %d machines over %lld days\n",
              dataset.result.log.size(), trace_config.sim.num_machines,
              static_cast<long long>(trace_config.sim.duration / aer::kDay));

  // --- 2. Learn a policy ---------------------------------------------------
  aer::PolicyGenerator generator;  // paper-default configuration
  aer::PolicyGenerationReport report;
  const aer::TrainedPolicy trained =
      generator.Generate(dataset.result.log, &report);
  std::printf("\nlearned %zu per-error-type rules "
              "(%zu processes, %.1f%% kept after noise filtering)\n",
              trained.num_types(), report.total_processes,
              100.0 * static_cast<double>(report.clean_processes) /
                  static_cast<double>(report.total_processes));

  // A few of the learned rules:
  std::printf("\n  %-28s  learned action sequence\n", "error type");
  for (std::size_t i = 0; i < trained.entries().size() && i < 6; ++i) {
    const auto& entry = trained.entries()[i];
    std::string seq;
    for (aer::RepairAction a : entry.sequence) {
      seq += std::string(aer::ActionName(a)) + " ";
    }
    std::printf("  %-28s  %s\n", entry.symptom_name.c_str(), seq.c_str());
  }

  // --- 3. Deployable policy: trained rules + user-defined fallback --------
  aer::UserDefinedPolicy fallback;
  aer::HybridPolicy policy(trained, fallback);

  // --- 4. How much downtime would it save? --------------------------------
  // Evaluate on the latest 60% of the log (train/test split by time).
  auto segmented = aer::SegmentIntoProcesses(dataset.result.log);
  aer::MPatternConfig mining;
  const aer::SymptomClustering clustering(segmented.processes, mining);
  const std::vector<aer::RecoveryProcess> clean =
      aer::KeepCohesive(std::move(segmented.processes), clustering);

  aer::ExperimentConfig experiment;
  const aer::ExperimentRunner runner(clean, dataset.result.log.symptoms(),
                                     experiment);
  const aer::ExperimentResult result = runner.RunOne(0.4);
  std::printf("\non the held-out 60%% of the log, the hybrid policy costs "
              "%.1f%% of the original downtime\n",
              100.0 * result.hybrid.overall_relative_cost);

  // --- 5. Save for deployment ----------------------------------------------
  std::ostringstream out;
  trained.Write(out);
  std::printf("\nserialized policy (%zu bytes); first line:\n  %s\n",
              out.str().size(),
              out.str().substr(0, out.str().find('\n')).c_str());
  return 0;
}
