// google-benchmark micro-benchmarks for the hot paths: Q-table operations,
// Boltzmann sampling, process replay steps, trainer sweeps, selection-tree
// training, log segmentation, m-pattern mining and log (de)serialization
// throughput.
#include <cstdint>
#include <iterator>
#include <sstream>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "bench_json.h"
#include "common/string_util.h"
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

// Selection-tree training of one error type on a small trace, sweeps and
// tree scans together, converging as in the figure benches.
void BM_SelectionTreeTrainType(benchmark::State& state) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 200;
  config.sim.duration = 60 * kDay;
  static const TraceDataset trace = GenerateTrace(config);
  static const std::vector<RecoveryProcess> processes =
      SegmentIntoProcesses(trace.result.log).processes;
  static const ErrorTypeCatalog types(processes, 40);
  static const SimulationPlatform platform(processes, types,
                                           trace.result.log.symptoms(), 20);
  TrainerConfig trainer_config;
  trainer_config.max_sweeps = 40000;
  const QLearningTrainer trainer(platform, processes, trainer_config);
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

void BM_MPatternMining(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  const std::vector<Transaction> txns =
      BuildSymptomTransactions(dataset.all);
  MPatternConfig config;
  config.minp = 0.1;
  const MPatternMiner miner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.MineMaximal(txns));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(txns.size()));
}
BENCHMARK(BM_MPatternMining);

void BM_LogSerializationRoundTrip(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  for (auto _ : state) {
    std::stringstream ss;
    dataset.trace.result.log.Write(ss);
    RecoveryLog parsed;
    benchmark::DoNotOptimize(RecoveryLog::Read(ss, parsed));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              dataset.trace.result.log.size()));
}
BENCHMARK(BM_LogSerializationRoundTrip);

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

// Console output as usual, plus every benchmark's per-iteration real time
// recorded as a "<name>_ns" metric in BENCH_micro_benchmarks.json so
// run_all.py tracks micro-level regressions alongside the figure benches.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations <= 0) continue;
      const double ns_per_iter = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
      BenchRecord::Instance().SetMetric(run.benchmark_name() + "_ns",
                                        ns_per_iter);
    }
  }
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
