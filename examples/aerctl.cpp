// aerctl — a command-line front end over the library's file-based workflow:
//
//   aerctl generate  --out trace.log [--scale small|default|large] [--seed N]
//   aerctl summarize --log trace.log
//   aerctl mine      --log trace.log [--minp 0.1]
//   aerctl train     --log trace.log --out policy.txt [--sweeps N] [--no-tree]
//   aerctl evaluate  --log trace.log --policy policy.txt [--train-fraction F]
//   aerctl simulate  --policy policy.txt [--scale ...] [--seed N]
//
// `generate` synthesizes a cluster trace; `train` learns a policy and writes
// it as text; `evaluate` replays it against the held-out tail of a log;
// `simulate` deploys it online (hybrid) against a fresh simulation and
// reports the A/B against the user-defined policy. Everything round-trips
// through ordinary files, the way an operator would wire the system into
// cron.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "cluster/user_policy.h"
#include "core/guarded_policy.h"
#include "core/policy_generator.h"
#include "ctrl/harness.h"
#include "eval/experiment.h"
#include "fleet/fleet_sim.h"
#include "fleet/trace.h"
#include "log/log_report.h"
#include "mining/symptom_clusters.h"
#include "common/profiler.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace_collector.h"
#include "obs/trace_dag.h"
#include "rl/policy_diff.h"

namespace {

using namespace aer;

// --- tiny flag parser -------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        ok_ = false;
        return;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.contains(key); }
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  long long GetInt(const std::string& key, long long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Usage() {
  std::printf(
      "aerctl — automatic error recovery, end to end\n"
      "\n"
      "  aerctl generate  --out trace.log [--scale small|default|large] "
      "[--seed N]\n"
      "  aerctl summarize --log trace.log\n"
      "  aerctl mine      --log trace.log [--minp 0.1]\n"
      "  aerctl train     --log trace.log --out policy.txt [--sweeps N] "
      "[--no-tree]\n"
      "  aerctl evaluate  --log trace.log --policy policy.txt "
      "[--train-fraction 0.4]\n"
      "  aerctl simulate  --policy policy.txt [--scale small] [--seed N]\n"
      "  aerctl diff      --old old.txt --new new.txt [--log recent.log]\n"
      "  aerctl metrics   [--incidents N] [--seed N] [--clean] [--json]\n"
      "  aerctl trace     [--incidents N] [--seed N] [--clean] "
      "[--type SYMPTOM] [--top N] [--json]\n"
      "  aerctl trace     --dag|--critical-path|--chrome [--cluster N] "
      "[--seed N]\n"
      "  aerctl timeseries [--incidents N] [--seed N] [--clean] "
      "[--window SECONDS] [--capacity N] [--json]\n"
      "  aerctl profile   [--incidents N] [--seed N] [--clean] [--wall] "
      "[--json]\n");
  return 0;
}

// Lenient ingestion: a garbled line in an operator-supplied log costs one
// entry, not the whole run. Damage counts are reported on stderr (and in
// full by `summarize`, which threads the parse result into the report).
std::optional<RecoveryLog> LoadLog(const std::string& path,
                                   LogParseResult* parse_out = nullptr) {
  RecoveryLog log;
  const LogParseResult parse =
      RecoveryLog::ReadFile(path, log, LogParseMode::kLenient);
  if (!parse.ok) {
    std::fprintf(stderr, "error: cannot read log %s: %s\n", path.c_str(),
                 parse.first_error.c_str());
    return std::nullopt;
  }
  if (parse.skipped > 0 || parse.repaired > 0) {
    std::fprintf(stderr,
                 "warning: %s: %zu malformed line(s) skipped, %zu "
                 "repaired (first at line %zu: %s)\n",
                 path.c_str(), parse.skipped, parse.repaired,
                 parse.first_error_line, parse.first_error.c_str());
  }
  if (parse_out != nullptr) *parse_out = parse;
  return log;
}

// --- subcommands -------------------------------------------------------------

int Generate(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 1;
  }
  TraceConfig config = TraceConfigForScale(flags.Get("scale", "small"));
  config.sim.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<long long>(config.sim.seed)));
  const TraceDataset dataset = GenerateTrace(config);
  dataset.result.log.WriteFile(out);
  std::printf("wrote %zu entries (%lld recovery processes, %d machines, "
              "%lld days) to %s\n",
              dataset.result.log.size(),
              static_cast<long long>(dataset.result.processes_completed),
              config.sim.num_machines,
              static_cast<long long>(config.sim.duration / kDay), out.c_str());
  return 0;
}

int Summarize(const Flags& flags) {
  LogParseResult parse;
  const auto log = LoadLog(flags.Get("log", ""), &parse);
  if (!log.has_value()) return 1;
  const LogReport report = BuildLogReport(*log, parse);
  std::printf("%s", FormatLogReport(report, log->symptoms()).c_str());
  return 0;
}

int Mine(const Flags& flags) {
  const auto log = LoadLog(flags.Get("log", ""));
  if (!log.has_value()) return 1;
  const SegmentationResult segmented = SegmentIntoProcesses(*log);
  MPatternConfig config;
  config.minp = flags.GetDouble("minp", 0.1);
  const SymptomClustering clustering(segmented.processes, config);
  const NoiseFilterResult filtered =
      FilterNoisyProcesses(segmented.processes, clustering);
  std::printf("minp %.2f: %zu symptom clusters, %.2f%% of processes "
              "cohesive (%zu noisy filtered)\n",
              config.minp, clustering.clusters().size(),
              100.0 * filtered.clean_fraction, filtered.noisy.size());
  std::printf("largest clusters:\n");
  std::vector<const ItemSet*> by_size;
  for (const ItemSet& c : clustering.clusters()) by_size.push_back(&c);
  std::sort(by_size.begin(), by_size.end(),
            [](const ItemSet* a, const ItemSet* b) {
              return a->size() > b->size();
            });
  for (std::size_t i = 0; i < by_size.size() && i < 5; ++i) {
    std::string names;
    for (SymptomId s : *by_size[i]) {
      names += log->symptoms().Name(s) + " ";
    }
    std::printf("  { %s}\n", names.c_str());
  }
  return 0;
}

int Train(const Flags& flags) {
  const long long sweeps = flags.GetInt("sweeps", 40000);
  if (sweeps < 1) {
    std::fprintf(stderr, "train: --sweeps must be at least 1 (got %lld)\n",
                 sweeps);
    return 1;
  }
  const auto log = LoadLog(flags.Get("log", ""));
  if (!log.has_value()) return 1;
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "train: --out is required\n");
    return 1;
  }
  PolicyGeneratorConfig config;
  config.trainer.max_sweeps = sweeps;
  config.use_selection_tree = !flags.Has("no-tree");
  const PolicyGenerator generator(config);
  PolicyGenerationReport report;
  const TrainedPolicy policy = generator.Generate(*log, &report);
  {
    std::ofstream os(out);
    policy.Write(os);
  }
  std::printf("trained %zu per-type rules from %zu clean processes "
              "(%zu clusters, %.2f%% type coverage); wrote %s\n",
              policy.num_types(), report.clean_processes,
              report.symptom_clusters, 100.0 * report.type_coverage,
              out.c_str());
  return 0;
}

int Evaluate(const Flags& flags) {
  const auto log = LoadLog(flags.Get("log", ""));
  if (!log.has_value()) return 1;
  TrainedPolicy policy;
  {
    std::ifstream is(flags.Get("policy", ""));
    if (!is.good() || !TrainedPolicy::Read(is, policy)) {
      std::fprintf(stderr, "error: cannot read policy\n");
      return 1;
    }
  }
  const double fraction = flags.GetDouble("train-fraction", 0.4);

  const SegmentationResult segmented = SegmentIntoProcesses(*log);
  MPatternConfig mining;
  const SymptomClustering clustering(segmented.processes, mining);
  const NoiseFilterResult filtered =
      FilterNoisyProcesses(segmented.processes, clustering);
  std::vector<RecoveryProcess> clean;
  for (std::size_t i : filtered.clean) {
    clean.push_back(segmented.processes[i]);
  }
  const ErrorTypeCatalog types(clean, 40);
  const TrainTestSplit split = SplitByTime(clean, fraction);
  const SimulationPlatform platform(split.test, types, log->symptoms());
  const PolicyEvaluator evaluator(platform);

  const EvalSummary trained = evaluator.EvaluateTrained(policy, split.test);
  UserDefinedPolicy user;
  HybridPolicy hybrid(policy, user);
  const EvalSummary hybrid_eval = evaluator.EvaluateFull(hybrid, split.test);

  std::printf("evaluated on the last %.0f%% of the log (%zu processes):\n",
              100.0 * (1.0 - fraction), split.test.size());
  std::printf("  trained policy: %.2f%% of original downtime, coverage "
              "%.2f%%\n",
              100.0 * trained.overall_relative_cost,
              100.0 * trained.overall_coverage);
  std::printf("  hybrid policy:  %.2f%% of original downtime, coverage "
              "%.2f%%\n",
              100.0 * hybrid_eval.overall_relative_cost,
              100.0 * hybrid_eval.overall_coverage);
  return 0;
}

int Diff(const Flags& flags) {
  const auto load = [](const std::string& path,
                       TrainedPolicy& out) -> bool {
    std::ifstream is(path);
    return is.good() && TrainedPolicy::Read(is, out);
  };
  TrainedPolicy old_policy;
  TrainedPolicy new_policy;
  if (!load(flags.Get("old", ""), old_policy) ||
      !load(flags.Get("new", ""), new_policy)) {
    std::fprintf(stderr, "diff: --old and --new must be readable policies\n");
    return 1;
  }
  if (!flags.Has("log")) {
    std::printf("%s", FormatPolicyDiff(DiffPolicies(old_policy, new_policy))
                          .c_str());
    return 0;
  }
  const auto log = LoadLog(flags.Get("log", ""));
  if (!log.has_value()) return 1;
  const SegmentationResult segmented = SegmentIntoProcesses(*log);
  const ErrorTypeCatalog types(segmented.processes, 40);
  const SimulationPlatform platform(segmented.processes, types,
                                    log->symptoms());
  std::printf("%s",
              FormatPolicyDiff(DiffPolicies(old_policy, new_policy, platform,
                                            segmented.processes))
                  .c_str());
  return 0;
}

// Shared by `metrics`, `trace`, `timeseries` and `profile`: drives a guarded
// policy through scripted incidents on a one-coordinator control plane under
// fault injection (lost, late and duplicated monitoring reports, dispatches
// and results, plus false success reports), with the registry (and, for
// `trace`, a trace collector) attached. Fully deterministic for a given
// (seed, incidents, clean) triple — the registry snapshot and the trace dump
// are byte-identical across runs (docs/OBSERVABILITY.md), which is what
// makes the output diffable.
void RunObservedPipeline(const Flags& flags, obs::MetricsRegistry& metrics,
                         obs::TimeSeriesRecorder* recorder = nullptr,
                         obs::TraceCollector* traces = nullptr) {
  const int count = static_cast<int>(flags.GetInt("incidents", 40));
  std::vector<ctrl::ControlIncident> incidents;
  const char* symptoms[] = {"Watchdog", "DiskError", "EventLog", "NicDown"};
  for (int i = 0; i < count; ++i) {
    incidents.push_back({.time = 100 + i * 700,
                         .machine = i % 7,
                         .symptom = symptoms[i % 4],
                         .cure_strength = i % kNumActions});
  }

  UserDefinedPolicy primary;
  UserDefinedPolicy fallback;
  GuardedPolicy guard(primary, fallback);
  guard.SetObservers(traces, &metrics);

  RecoveryManagerConfig manager_config;
  manager_config.action_timeout = 10 * kHour;
  manager_config.flap_threshold = 6;
  manager_config.flap_window = 12 * kHour;

  ctrl::ControlHarnessConfig config = ctrl::OneCoordinatorConfig();
  config.net.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  if (!flags.Has("clean")) {
    config.net.drop_machine_hop = 0.2;
    config.net.duplicate_machine_hop = 0.1;
    config.net.delay_machine_hop = 0.2;
    config.net.false_success = 0.1;
  }

  ctrl::ControlPlaneHarness harness(guard, manager_config, config,
                                    NetFaultScript{});
  harness.SetObservers(traces, &metrics);
  harness.SetTimeSeries(recorder);
  harness.Run(incidents);
}

// Windowed metric deltas over the same observed pipeline: the sim-time axis
// is sliced on --window (default one simulated hour), so the output shows
// *when* the counters moved, not just their totals.
int Timeseries(const Flags& flags) {
  obs::MetricsRegistry metrics;
  obs::TimeSeriesConfig config;
  config.window_width = flags.GetInt("window", kHour);
  config.capacity = static_cast<std::size_t>(flags.GetInt("capacity", 256));
  obs::TimeSeriesRecorder recorder(metrics, config);
  RunObservedPipeline(flags, metrics, &recorder);
  if (flags.Has("json")) {
    std::printf("%s\n", recorder.ExportJson().ToString().c_str());
  } else {
    std::printf("%s", recorder.ExportText().c_str());
  }
  return 0;
}

// Wall-clock scope profile of the observed pipeline. Without --wall only
// paths and call counts are printed — a pure function of the control flow,
// byte-stable across runs (the golden CLI tests pin it). --wall adds the
// measured milliseconds, which are machine-dependent by nature.
int Profile(const Flags& flags) {
#if !AER_PROFILING_IS_ON()
  (void)flags;
  std::printf("profiling disabled (built with -DAER_PROFILING=OFF)\n");
  return 0;
#else
  obs::MetricsRegistry metrics;
  ProfileRegistry::Global().Reset();
  RunObservedPipeline(flags, metrics);
  const std::vector<ProfileEntry> entries =
      ProfileRegistry::Global().Snapshot();
  const ProfileRegistry::FormatOptions options{.include_wall =
                                                   flags.Has("wall")};
  if (flags.Has("json")) {
    std::printf("%s\n",
                ProfileRegistry::ProfileToJson(entries, options)
                    .ToString()
                    .c_str());
  } else {
    std::printf("%s", ProfileRegistry::FormatProfile(entries, options)
                          .c_str());
  }
  return 0;
#endif
}

int Metrics(const Flags& flags) {
  obs::MetricsRegistry metrics;
  RunObservedPipeline(flags, metrics);
  obs::MetricsRegistry::ExportOptions options;
  options.include_volatile = false;
  if (flags.Has("json")) {
    std::printf("%s\n", metrics.ExportJson(options).ToString().c_str());
  } else {
    std::printf("%s", metrics.ExportText(options).c_str());
  }
  return 0;
}

// `trace --dag|--critical-path|--chrome` drives a --cluster-sized control
// plane (default 3) instead of the one-coordinator pipeline: a
// compressed-time cluster cures three scripted incidents while node 0
// crashes mid-recovery and later restarts, so the collected causal DAG
// exercises dispatch, execution, timeout, takeover adoption, and the
// leadership overlay.
// Fully deterministic for a given (--cluster, --seed) pair — the DAG text,
// the critical-path attribution, and the Chrome trace JSON are byte-
// identical across runs (the golden CLI tests pin them).
void RunTracedControlPipeline(const Flags& flags,
                              obs::TraceCollector& traces) {
  ctrl::ControlHarnessConfig config;
  config.cluster_size = static_cast<int>(flags.GetInt("cluster", 3));
  config.tick_interval = 5;
  config.net_latency = 1;
  config.reemit_interval = 60;
  config.action_duration = {2, 5, 10, 20};
  config.coordinator.lease.lease_duration = 30;
  config.coordinator.membership.suspect_after = 15;
  config.coordinator.membership.evict_after = 60;
  config.coordinator.election_retry = 10;
  config.net.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  RecoveryManagerConfig manager_config;
  manager_config.action_timeout = 120;

  NetFaultScript script;
  script.crashes.push_back({72, 0, 300});

  UserDefinedPolicy policy;
  ctrl::ControlPlaneHarness harness(policy, manager_config, config, script);
  harness.SetObservers(&traces, nullptr);
  harness.Run({
      {50, 7, "NoHeartbeat", 3},
      {150, 2, "Watchdog", 1},
      {400, 9, "Watchdog", 0},
  });
}

int Trace(const Flags& flags) {
  if (flags.Has("dag") || flags.Has("critical-path") || flags.Has("chrome")) {
    obs::TraceCollector traces;
    RunTracedControlPipeline(flags, traces);
    const std::vector<obs::TraceRecord> records = traces.Snapshot();
    if (flags.Has("chrome")) {
      std::printf("%s\n",
                  obs::ChromeTraceJson(obs::BuildTraceDag(records),
                                       obs::AnalyzeCriticalPaths(records))
                      .c_str());
    } else if (flags.Has("critical-path")) {
      std::printf(
          "%s",
          obs::FormatCriticalPaths(obs::AnalyzeCriticalPaths(records))
              .c_str());
    } else {
      std::printf("%s", obs::FormatTraceDag(obs::BuildTraceDag(records))
                            .c_str());
    }
    return 0;
  }
  obs::TraceCollector traces;
  obs::MetricsRegistry metrics;
  RunObservedPipeline(flags, metrics, nullptr, &traces);
  obs::TraceDag dag = obs::BuildTraceDag(traces.Snapshot());
  if (flags.Has("type")) {
    dag = obs::FilterByIncident(std::move(dag), flags.Get("type", ""));
  }
  if (flags.Has("top")) {
    dag = obs::LongestProcesses(
        std::move(dag), static_cast<std::size_t>(flags.GetInt("top", 10)));
  }
  if (flags.Has("json")) {
    std::printf("%s\n", obs::TraceDagToJson(dag).ToString().c_str());
  } else {
    std::printf("%s", obs::FormatTraceDag(dag).c_str());
    std::printf("%lld traces (%lld records dropped by ring)\n",
                static_cast<long long>(dag.processes.size()),
                static_cast<long long>(traces.dropped_count()));
  }
  return 0;
}

int Simulate(const Flags& flags) {
  TrainedPolicy policy;
  {
    std::ifstream is(flags.Get("policy", ""));
    if (!is.good() || !TrainedPolicy::Read(is, policy)) {
      std::fprintf(stderr, "error: cannot read policy\n");
      return 1;
    }
  }
  TraceConfig config = TraceConfigForScale(flags.Get("scale", "small"));
  config.sim.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<long long>(config.sim.seed) + 1));
  const FaultCatalog catalog = MakeDefaultCatalog(config.catalog);

  const fleet::FleetSimConfig sim_config{.sim = config.sim};
  UserDefinedPolicy user_a(config.escalation);
  const SimulationResult arm_a =
      fleet::FleetSimulator(sim_config, catalog).RunSeedCompat(user_a);

  UserDefinedPolicy user_b(config.escalation);
  HybridPolicy hybrid(policy, user_b);
  const SimulationResult arm_b =
      fleet::FleetSimulator(sim_config, catalog).RunSeedCompat(hybrid);

  const double mean_a = static_cast<double>(arm_a.total_downtime) /
                        static_cast<double>(arm_a.processes_completed);
  const double mean_b = static_cast<double>(arm_b.total_downtime) /
                        static_cast<double>(arm_b.processes_completed);
  std::printf("online A/B over %lld/%lld incidents:\n",
              static_cast<long long>(arm_a.processes_completed),
              static_cast<long long>(arm_b.processes_completed));
  std::printf("  user-defined:  %.0f s mean downtime\n", mean_a);
  std::printf("  hybrid:        %.0f s mean downtime (%.1f%% of user)\n",
              mean_b, 100.0 * mean_b / mean_a);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (!flags.ok()) return 1;
  if (command == "generate") return Generate(flags);
  if (command == "summarize") return Summarize(flags);
  if (command == "mine") return Mine(flags);
  if (command == "train") return Train(flags);
  if (command == "evaluate") return Evaluate(flags);
  if (command == "simulate") return Simulate(flags);
  if (command == "diff") return Diff(flags);
  if (command == "metrics") return Metrics(flags);
  if (command == "trace") return Trace(flags);
  if (command == "timeseries") return Timeseries(flags);
  if (command == "profile") return Profile(flags);
  std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
  Usage();
  return 1;
}
