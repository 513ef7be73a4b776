// Serial vs parallel training throughput (docs/PARALLELISM.md).
//
// Trains the full per-type policy twice from the same master seed — once on
// the serial QLearningTrainer, once sharded by error type over the shared
// ThreadPool — and reports episodes/sec for both plus the speedup. The two
// runs must produce byte-identical serialized policies (the determinism
// contract); the bench aborts if they ever diverge, and folds the serialized
// policy and every per-type Q-table into the BENCH_training.json checksum so
// run_all.py catches numeric drift across commits.
#include <chrono>
#include <cstdio>
#include <sstream>

#include "bench_common.h"
#include "bench_json.h"
#include "common/check.h"
#include "mining/error_type.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "rl/qlearning.h"
#include "rl/telemetry.h"
#include "sim/platform.h"

namespace aer::bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Run() {
  Header("training",
         "Section 4 training loop (engineering extension)",
         "Serial vs per-error-type parallel training: same seed, same bytes "
         "out, episodes/sec and speedup recorded to BENCH_training.json.");

  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const SimulationPlatform platform(
      dataset.clean, types, dataset.trace.result.log.symptoms(), 20);
  const TrainerConfig config = DefaultExperimentConfig().trainer;
  const QLearningTrainer trainer(platform, dataset.clean, config);

  // Serial arm: the unmodified reference trainer.
  const auto serial_start = std::chrono::steady_clock::now();
  const QLearningTrainer::TrainingOutput serial = trainer.TrainAll();
  const double serial_ms = MsSince(serial_start);

  // Parallel arm: sharded by type over the shared pool.
  std::vector<QTable> tables;
  const auto parallel_start = std::chrono::steady_clock::now();
  const QLearningTrainer::TrainingOutput parallel =
      trainer.TrainAll(&GetPool(), &tables);
  const double parallel_ms = MsSince(parallel_start);

  // Equivalence gate: the serialized policies must match byte for byte.
  std::ostringstream serial_bytes;
  serial.policy.Write(serial_bytes);
  std::ostringstream parallel_bytes;
  parallel.policy.Write(parallel_bytes);
  AER_CHECK(serial_bytes.str() == parallel_bytes.str())
      << "parallel training diverged from the serial trainer";

  const auto total_episodes =
      [](const QLearningTrainer::TrainingOutput& output) {
        std::int64_t total = 0;
        for (const TypeTrainingResult& r : output.per_type) {
          total += r.episodes;
        }
        return total;
      };
  const std::int64_t episodes = total_episodes(serial);
  AER_CHECK_EQ(episodes, total_episodes(parallel));
  const double serial_eps = episodes / (serial_ms / 1000.0);
  const double parallel_eps = episodes / (parallel_ms / 1000.0);

  // Telemetry arm: the serial trainer again, with per-episode telemetry
  // collection on and the full observability stack attached — each type's
  // shard is published into a live registry as it finishes, with a
  // TimeSeriesRecorder advancing on cumulative episodes. Two gates:
  // telemetry+recorder is observation-only (byte-identical policy) and
  // near-free (< 5% wall overhead, with a small absolute slack so
  // sub-second small-scale runs aren't failed by scheduler noise).
  TrainerConfig telemetry_config = config;
  telemetry_config.collect_telemetry = true;
  const QLearningTrainer telemetry_trainer(platform, dataset.clean,
                                           telemetry_config);
  obs::MetricsRegistry registry;
  obs::TimeSeriesConfig window_config;
  window_config.window_width = episodes >= 8 ? episodes / 8 : 1;
  obs::TimeSeriesRecorder recorder(registry, window_config);
  QLearningTrainer::TrainingOutput telemetry;
  std::int64_t telemetry_episodes = 0;
  const auto telemetry_start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < types.num_types(); ++t) {
    const ErrorTypeId type = static_cast<ErrorTypeId>(t);
    TypeTrainingResult result = telemetry_trainer.TrainType(type);
    if (!result.sequence.empty()) {
      telemetry.policy.AddType(
          {std::string(platform.symptoms().Name(
               platform.types().symptom_of(type))),
           result.sequence});
    }
    PublishTypeTelemetry(registry, result);
    telemetry_episodes += result.episodes;
    recorder.AdvanceTo(telemetry_episodes);
    telemetry.per_type.push_back(std::move(result));
  }
  recorder.Finish(telemetry_episodes);
  PublishTrainingSummary(registry, telemetry.per_type);
  const double telemetry_ms = MsSince(telemetry_start);
  std::ostringstream telemetry_bytes;
  telemetry.policy.Write(telemetry_bytes);
  AER_CHECK(telemetry_bytes.str() == serial_bytes.str())
      << "telemetry collection changed the trained policy";
  AER_CHECK_LE(telemetry_ms, serial_ms * 1.05 + 250.0)
      << "telemetry overhead above 5%: " << telemetry_ms << " ms vs "
      << serial_ms << " ms baseline";
  AER_CHECK_EQ(telemetry_episodes, episodes)
      << "per-type training diverged from TrainAll's episode count";
  AER_CHECK_GE(recorder.windows_closed(), 1)
      << "the recorder closed no windows over a full training run";
  const double telemetry_eps = episodes / (telemetry_ms / 1000.0);

  PublishTrainingThroughput(registry, telemetry_eps);

  BenchRecord& record = BenchRecord::Instance();
  record.RecordRegistrySnapshot(registry);
  // The windowed deltas are deterministic too (docs/OBSERVABILITY.md), so
  // folding the recorder's export catches drift in *when* counters moved,
  // not just their totals.
  record.FoldChecksum(recorder.ExportText());
  record.SetIntMetric("ts_windows_closed", recorder.windows_closed());
  record.FoldChecksum(parallel_bytes.str());
  for (const QTable& table : tables) {
    std::ostringstream table_bytes;
    table.Write(table_bytes);
    record.FoldChecksum(table_bytes.str());
  }
  record.SetIntMetric("episodes", episodes);
  record.SetIntMetric("types", static_cast<std::int64_t>(types.num_types()));
  record.SetMetric("serial_wall_ms", serial_ms);
  record.SetMetric("parallel_wall_ms", parallel_ms);
  record.SetMetric("episodes_per_sec_serial", serial_eps);
  record.SetMetric("episodes_per_sec", parallel_eps);
  record.SetMetric("speedup_vs_serial", serial_eps > 0.0
                                            ? parallel_eps / serial_eps
                                            : 0.0);

  record.SetMetric("episodes_per_sec_telemetry", telemetry_eps);
  record.SetMetric("telemetry_wall_ms", telemetry_ms);

  std::printf("\n%-10s %14s %16s\n", "arm", "wall ms", "episodes/sec");
  std::printf("%-10s %14.1f %16.1f\n", "serial", serial_ms, serial_eps);
  std::printf("%-10s %14.1f %16.1f\n", "parallel", parallel_ms, parallel_eps);
  std::printf("%-10s %14.1f %16.1f\n", "telemetry", telemetry_ms,
              telemetry_eps);
  std::printf("\nepisodes: %lld across %zu types, %d worker thread(s), "
              "speedup %.2fx\n",
              static_cast<long long>(episodes), types.num_types(),
              ThreadPool::DefaultThreadCount(),
              serial_eps > 0.0 ? parallel_eps / serial_eps : 0.0);
  std::printf("serialized policies: identical (%zu bytes)\n",
              parallel_bytes.str().size());
  std::printf("time series: %lld windows closed, %lld dropped\n",
              static_cast<long long>(recorder.windows_closed()),
              static_cast<long long>(recorder.windows_dropped()));

  Footer();
}

}  // namespace
}  // namespace aer::bench

int main() {
  aer::bench::Run();
  return 0;
}
