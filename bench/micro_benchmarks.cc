// google-benchmark micro-benchmarks for the hot paths: Q-table operations,
// Boltzmann sampling, process replay construction and steps, trainer
// sweeps, selection-tree training and pricing, log segmentation, the log
// report, m-pattern mining, log (de)serialization throughput, profiler scope
// entry and the online manager's open/decide/close cycle.
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "bench_json.h"
#include "cluster/user_policy.h"
#include "common/profiler.h"
#include "common/string_util.h"
#include "core/recovery_manager.h"
#include "log/log_report.h"
#include "mining/error_type.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "rl/qlearning.h"
#include "rl/selection_tree.h"

namespace aer::bench {
namespace {

void BM_QTableUpdate(benchmark::State& state) {
  QTable table;
  Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const StateKey s = i++ % 4096;
    table.Update(s, RepairAction::kReboot, rng.NextDouble() * 1000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QTableUpdate);

void BM_QTableBestAction(benchmark::State& state) {
  QTable table;
  for (StateKey s = 0; s < 4096; ++s) {
    for (RepairAction a : kAllActions) {
      table.Update(s, a, static_cast<double>(s ^ ActionIndex(a)));
    }
  }
  StateKey s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.BestAction(s++ % 4096));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QTableBestAction);

void BM_BoltzmannSample(benchmark::State& state) {
  Rng rng(2);
  const std::vector<double> costs = {900.0, 2400.0, 9000.0, 90000.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBoltzmann(costs, 2000.0, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoltzmannSample);

void BM_StateEncode(benchmark::State& state) {
  const std::vector<RepairAction> tried = {
      RepairAction::kTryNop, RepairAction::kReboot, RepairAction::kReboot,
      RepairAction::kReimage};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeState(17, tried));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateEncode);

void BM_ProcessReplayEpisode(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const CostEstimator estimator(dataset.clean, types);
  // Use the most frequent type's first process.
  const RecoveryProcess* process = nullptr;
  for (const RecoveryProcess& p : dataset.clean) {
    if (types.Classify(p) == 0) {
      process = &p;
      break;
    }
  }
  for (auto _ : state) {
    ProcessReplay replay(*process, 0, estimator);
    replay.Step(RepairAction::kTryNop);
    if (!replay.cured()) replay.Step(RepairAction::kReboot);
    if (!replay.cured()) replay.Step(RepairAction::kReimage);
    benchmark::DoNotOptimize(replay.total_cost());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessReplayEpisode);

// Replay construction alone, over a rotating set of generated processes:
// what every training episode and every priced process pays before its
// first step.
void BM_ProcessReplayConstruct(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const CostEstimator estimator(dataset.clean, types);
  std::vector<const RecoveryProcess*> processes;
  std::vector<ErrorTypeId> process_types;
  for (const RecoveryProcess& p : dataset.clean) {
    if (processes.size() == 512) break;
    const ErrorTypeId type = types.Classify(p);
    if (type == kInvalidErrorType) continue;
    processes.push_back(&p);
    process_types.push_back(type);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const ProcessReplay replay(*processes[next], process_types[next],
                               estimator);
    benchmark::DoNotOptimize(replay.total_cost());
    next = (next + 1) % processes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessReplayConstruct);

// Self-replay of generated processes on reused replays: one iteration
// replays one process's logged actions from Reset() to its cure, so the
// time is the per-step price and cure check, not replay construction.
void BM_ProcessReplayStep(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const CostEstimator estimator(dataset.clean, types);
  constexpr std::size_t kReplays = 512;
  std::vector<const RecoveryProcess*> processes;
  std::vector<ProcessReplay> replays;
  replays.reserve(kReplays);
  for (const RecoveryProcess& p : dataset.clean) {
    if (replays.size() == kReplays) break;
    const ErrorTypeId type = types.Classify(p);
    if (type == kInvalidErrorType) continue;
    processes.push_back(&p);
    replays.emplace_back(p, type, estimator);
  }
  std::int64_t steps = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    ProcessReplay& replay = replays[next];
    replay.Reset();
    for (const ActionAttempt& attempt : processes[next]->attempts()) {
      replay.Step(attempt.action);
      if (replay.cured()) break;
    }
    steps += replay.steps();
    benchmark::DoNotOptimize(replay.total_cost());
    next = (next + 1) % replays.size();
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_ProcessReplayStep);

void BM_TrainerSweeps(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  static const ErrorTypeCatalog types(dataset.clean, 40);
  static const SimulationPlatform platform(
      dataset.clean, types, dataset.trace.result.log.symptoms(), 20);
  TrainerConfig config;
  config.max_sweeps = state.range(0);
  config.min_sweeps = state.range(0);  // run the full budget
  config.stable_checks = 1 << 20;      // never early-stop
  const QLearningTrainer trainer(platform, dataset.clean, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.TrainType(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainerSweeps)->Arg(2000)->Arg(10000);

// The small trace of the selection-tree benchmarks: 200 machines x 60 days.
struct TreeBenchData {
  TraceDataset trace;
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog types;
  SimulationPlatform platform;

  static TraceConfig Config() {
    TraceConfig config = TraceConfigForScale("small");
    config.sim.num_machines = 200;
    config.sim.duration = 60 * kDay;
    return config;
  }
  TreeBenchData()
      : trace(GenerateTrace(Config())),
        processes(SegmentIntoProcesses(trace.result.log).processes),
        types(processes, 40),
        platform(processes, types, trace.result.log.symptoms(), 20) {}
};

const TreeBenchData& GetTreeBenchData() {
  static const TreeBenchData data;
  return data;
}

// Selection-tree training of one error type on a small trace, sweeps and
// tree scans together, converging as in the figure benches.
void BM_SelectionTreeTrainType(benchmark::State& state) {
  const TreeBenchData& data = GetTreeBenchData();
  TrainerConfig trainer_config;
  trainer_config.max_sweeps = 40000;
  const QLearningTrainer trainer(data.platform, data.processes,
                                 trainer_config);
  const SelectionTreeTrainer tree(trainer, SelectionTreeConfig{});
  std::int64_t episodes = 0;
  for (auto _ : state) {
    const TypeTrainingResult result = tree.TrainType(0);
    episodes += result.episodes;
    benchmark::DoNotOptimize(result.sequence.data());
  }
  state.counters["episodes/iter"] = benchmark::Counter(
      static_cast<double>(episodes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SelectionTreeTrainType)->Unit(benchmark::kMillisecond);

// The pricing of one tree scan with nothing priced yet: the candidates the
// tree draws from a part-trained Q-table of type 0 (at most 64), the
// escalation seeds, and every prefix of each, against the type's processes.
void BM_EvaluateSequencesTree(benchmark::State& state) {
  const TreeBenchData& data = GetTreeBenchData();
  TrainerConfig trainer_config;
  trainer_config.max_sweeps = 3000;
  trainer_config.min_sweeps = trainer_config.max_sweeps;
  const QLearningTrainer trainer(data.platform, data.processes,
                                 trainer_config);
  QTable table;
  trainer.TrainType(0, &table);
  std::vector<ActionSequence> candidates = BuildCandidateSequences(
      table, 0, trainer_config.max_actions, SelectionTreeConfig{});
  const std::vector<RepairAction>& allowed =
      data.platform.estimator().ObservedActions(0);
  for (std::size_t start = 0; start < allowed.size(); ++start) {
    ActionSequence seq;
    for (std::size_t i = start; i < allowed.size(); ++i) {
      seq.push_back(allowed[i]);
      if (allowed[i] != RepairAction::kRma) seq.push_back(allowed[i]);
    }
    candidates.push_back(std::move(seq));
  }
  std::set<ActionSequence> prefixes;
  for (const ActionSequence& candidate : candidates) {
    for (auto end = candidate.begin(); end != candidate.end();) {
      prefixes.emplace(candidate.begin(), ++end);
    }
  }
  const std::vector<ActionSequence> batch(prefixes.begin(), prefixes.end());
  const auto processes = trainer.processes_of(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateSequences(
        batch, processes, 0, data.platform.estimator(),
        trainer_config.max_actions, data.platform.capabilities()));
  }
  state.counters["sequences"] = static_cast<double>(batch.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(processes.size()));
}
BENCHMARK(BM_EvaluateSequencesTree)->Unit(benchmark::kMicrosecond);

void BM_LogSegmentation(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SegmentIntoProcesses(dataset.trace.result.log));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              dataset.trace.result.log.size()));
}
BENCHMARK(BM_LogSegmentation);

// The aerctl summarize report: segmentation's phase 1 and a per-type tally.
void BM_LogReport(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildLogReport(dataset.trace.result.log));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              dataset.trace.result.log.size()));
}
BENCHMARK(BM_LogReport);

// Collapsing the processes into counted symptom sets, then mining them.
void BM_MPatternMining(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  MPatternConfig config;
  config.minp = 0.1;
  const MPatternMiner miner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        miner.MineMaximal(CollapseSymptomSets(dataset.all)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset.all.size()));
}
BENCHMARK(BM_MPatternMining);

// The Figure 3 sweep over the ten fig03 minp values: one mine at minp 0.1,
// then a strength filter, maximal sets and cohesion count per minp.
void BM_CohesiveFractionSweep(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  std::vector<double> minps;
  for (int i = 1; i <= 10; ++i) minps.push_back(0.1 * i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CohesiveFractionSweep(dataset.all, minps));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset.all.size()));
}
BENCHMARK(BM_CohesiveFractionSweep)->Unit(benchmark::kMillisecond);

void BM_LogSerializationRoundTrip(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  for (auto _ : state) {
    std::stringstream ss;
    dataset.trace.result.log.Write(ss);
    RecoveryLog parsed;
    benchmark::DoNotOptimize(
        RecoveryLog::Read(ss, parsed, LogParseMode::kStrict).ok);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              dataset.trace.result.log.size()));
}
BENCHMARK(BM_LogSerializationRoundTrip);

// The two halves of the round trip, so a codec regression shows which side
// moved.
void BM_LogWrite(benchmark::State& state) {
  const RecoveryLog& log = GetDataset().trace.result.log;
  for (auto _ : state) {
    std::ostringstream os;
    log.Write(os);
    benchmark::DoNotOptimize(os.tellp());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_LogWrite);

void BM_LogRead(benchmark::State& state) {
  const RecoveryLog& log = GetDataset().trace.result.log;
  std::ostringstream os;
  log.Write(os);
  const std::string text = os.str();
  for (auto _ : state) {
    std::istringstream is(text);
    RecoveryLog parsed;
    benchmark::DoNotOptimize(
        RecoveryLog::Read(is, parsed, LogParseMode::kStrict).ok);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LogRead);

// Observability overhead (docs/OBSERVABILITY.md): the instrumented hot
// paths pay one cached-pointer counter increment or histogram observe per
// event, never a registry lookup — these pin the cost of each.
void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  // Throwaway probe name in a private registry, never exported — not a
  // catalog entry.
  obs::Counter& counter = registry.GetCounter(
      "aer_bench_counter");  // aer-lint: allow(metric-catalog)
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.GetHistogram(
      "aer_bench_histogram");  // aer-lint: allow(metric-catalog)
  std::uint64_t i = 0;
  for (auto _ : state) {
    histogram.Observe(static_cast<double>(i++ % 100000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

// One AER_PROFILE_SCOPE entry and exit nested under an open scope, the cost
// each coarse scope (a training type, a fleet shard, a pool task) pays once
// (docs/OBSERVABILITY.md "Profiler" quotes it).
void BM_ProfileScope(benchmark::State& state) {
  AER_PROFILE_SCOPE("bench_outer");
  for (auto _ : state) {
    AER_PROFILE_SCOPE("bench_inner");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileScope);

void BM_ObsRegistryLookup(benchmark::State& state) {
  obs::MetricsRegistry registry;
  registry.GetCounter("aer_bench_counter");  // aer-lint: allow(metric-catalog)
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.GetCounter(
        "aer_bench_counter"));  // aer-lint: allow(metric-catalog)
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryLookup);

// One cured single-attempt recovery process's worth of causal records (the
// shape the injection harness emits) appended per iteration to one
// collector; items are records, so the reported rate is per record.
void BM_TraceRecord(benchmark::State& state) {
  struct Hop {
    obs::TraceEventKind kind;
    const char* detail;
  };
  static constexpr Hop kProcess[] = {
      {obs::TraceEventKind::kIncident, "Watchdog"},
      {obs::TraceEventKind::kSymptom, "Watchdog"},
      {obs::TraceEventKind::kDispatch, ""},
      {obs::TraceEventKind::kActionStart, ""},
      {obs::TraceEventKind::kActionDone, "cured"},
      {obs::TraceEventKind::kCure, ""},
      {obs::TraceEventKind::kResultDeliver, "healthy"},
  };
  obs::TraceCollector traces;
  std::uint64_t episode = 0;
  for (auto _ : state) {
    const obs::TraceId id = obs::MakeTraceId(1, 7, ++episode);
    SimTime now = static_cast<SimTime>(episode) * 100;
    for (const Hop& hop : kProcess) {
      traces.Record({.trace_id = id,
                     .time = now++,
                     .kind = hop.kind,
                     .machine = 7,
                     .attempt = 0,
                     .action = 0,
                     .detail = hop.detail});
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(std::size(kProcess)));
}
BENCHMARK(BM_TraceRecord);

void BM_ObsRegistryExportText(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter(StrFormat("aer_bench_counter_%02d", i)).Inc(i);
  }
  for (int i = 0; i < 8; ++i) {
    obs::Histogram& h =
        registry.GetHistogram(StrFormat("aer_bench_histogram_%d", i));
    for (int j = 0; j < 100; ++j) h.Observe(j * 97.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.ExportText());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryExportText);

void BM_GenerateTrace(benchmark::State& state) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 100;
  config.sim.duration = 30 * kDay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateTrace(config));
  }
}
BENCHMARK(BM_GenerateTrace);

// One open -> decide -> close cycle of the online manager while it retains
// state.range(0) machines' history (a retention nothing outlives). Every
// 64th close runs the history sweep, so an iteration carries its amortised
// share; the time should stay flat as the history grows. The iteration
// count is fixed because the manager's log grows with every cycle.
void BM_RecoveryManagerClose(benchmark::State& state) {
  const auto machines = static_cast<MachineId>(state.range(0));
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.history_retention = 1000 * kDay;
  RecoveryManager manager(policy, config);
  SimTime now = 0;
  const auto cycle = [&](MachineId machine) {
    manager.OnSymptom(now, machine, "s");
    benchmark::DoNotOptimize(manager.OnRecoveryNeeded(now + 1, machine));
    manager.OnActionResult(now + 2, machine, /*healthy=*/true);
    now += 10;
  };
  for (MachineId machine = 0; machine < machines; ++machine) cycle(machine);
  MachineId next = 0;
  for (auto _ : state) {
    cycle(next);
    next = (next + 1) % machines;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecoveryManagerClose)
    ->Arg(1 << 10)
    ->Arg(1 << 16)
    ->Iterations(1 << 17);

// Output through the library's default display reporter, which honours
// --benchmark_format and --benchmark_color, plus every benchmark's
// per-iteration real time recorded as a "<name>_ns" metric in
// BENCH_micro_benchmarks.json so run_all.py tracks micro-level regressions
// alongside the figure benches.
class RecordingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void Finalize() override { display_->Finalize(); }
  void ReportRuns(const std::vector<Run>& reports) override {
    display_->ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations <= 0) continue;
      const double ns_per_iter = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
      BenchRecord::Instance().SetMetric(run.benchmark_name() + "_ns",
                                        ns_per_iter);
    }
  }

 private:
  // Owned by the library (a process-lifetime singleton).
  benchmark::BenchmarkReporter* const display_ =
      benchmark::CreateDefaultDisplayReporter();
};

}  // namespace
}  // namespace aer::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  aer::bench::BenchRecord::Instance().Begin("micro_benchmarks");
  aer::bench::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  aer::bench::BenchRecord::Instance().Finish();
  return 0;
}
