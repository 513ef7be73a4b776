// bench_e2e — one workload of the end-to-end benchmark per process.
//
//   bench_e2e --workload W --seed S [--seconds T] [--size full|smoke]
//             [--trace FILE]
//
// Workloads (BENCHMARK.md says why each was chosen):
//   retrain  the paper's deployment scenario (test 4): parse, segment, mine
//            and type a cluster's log, train on its first 80% with the
//            selection tree, evaluate the trained and hybrid policies on the
//            rest, bootstrap the hybrid's relative cost; each pass takes the
//            next of ten cluster logs. `rl` dominates.
//   mine     the operator's summarize/mine path: lenient parse, log report,
//            segmentation, the Figure 3 minp sweep, noise filter and type
//            ranking. `log` and `mining` only; no training at all.
//   online   the online half of Figure 1: a closed-loop caller drives a
//            RecoveryManager over a hybrid policy through every incident of
//            a fleet log, one call at a time, in simulated time. `core`.
//   fleet    the generator the other three use at set-up: a sharded
//            FleetSimulator run and the log written as text. `fleet`, `log`.
//
// Every input is generated at set-up from the seed; set-up runs five times
// (reported as the median) and must produce the same inputs each time. The
// timed section then runs back-to-back passes over the in-memory inputs for
// at least --seconds, at least three passes and at least one per input.
// After each pass, outside the timing, its outputs are folded into an
// FNV-1a checksum; passes over the same input must agree. Metrics are
// medians over passes (for several inputs, the mean over inputs of each
// input's median); end-to-end times are rescaled by host speed probes
// taken just before and just after each set-up and each pass (see
// ProbeSeconds).
//
// With --trace the passes alternate untraced and traced. Traced passes
// record a span around every layer call (span_trace.h), the per-layer
// metrics come from them, their overhead is the ratio of the traced to the
// untraced median pass time, and the spans are written to FILE as Chrome
// trace-event JSON at exit.
//
// The last line of standard output is one JSON object: workload, seed,
// size, mode, passes, checksum, correct, attempted, failed, and the metrics
// (end-to-end without --trace, per-layer with it), each with its unit.
// Exit status: 0 on a completed run (even an incorrect one: `correct`
// says so), 2 on bad usage.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/policy_generator.h"
#include "core/recovery_manager.h"
#include "eval/bootstrap.h"
#include "eval/experiment.h"
#include "fleet/fleet_sim.h"
#include "log/action.h"
#include "log/log_report.h"
#include "log/log_stats.h"
#include "log/recovery_log.h"
#include "log/recovery_process.h"
#include "mining/error_type.h"
#include "mining/symptom_clusters.h"
#include "obs/metrics.h"
#include "span_trace.h"

namespace aer::e2e {
namespace {

// ---------------------------------------------------------------------------
// Metric catalog. benchmark.py checks that a run prints exactly these names
// and units, and that they match BENCHMARK.json.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr int kSetupRepetitions = 5;

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"events_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// A layer the workload does not call reports 0.
constexpr MetricDef kPerLayer[] = {
    {"log.parse_s", "s"},
    {"log.segment_s", "s"},
    {"log.report_s", "s"},
    {"log.write_s", "s"},
    {"log.entries", "count"},
    {"log.bytes", "B"},
    {"log.dropped_frac", "ratio"},
    {"mining.sweep_s", "s"},
    {"mining.cluster_s", "s"},
    {"mining.filter_s", "s"},
    {"mining.types_s", "s"},
    {"mining.clusters", "count"},
    {"mining.clean_frac", "ratio"},
    {"sim.platform_s", "s"},
    {"rl.train_s", "s"},
    {"rl.type_s_sum", "s"},
    {"rl.type_s_max", "s"},
    {"rl.sweep_s", "s"},
    {"rl.tree_scan_s", "s"},
    {"rl.episodes", "count"},
    {"rl.converged_frac", "ratio"},
    {"rl.policy_us_p50", "us"},
    {"rl.policy_calls", "count"},
    {"pool.efficiency", "ratio"},
    {"eval.split_s", "s"},
    {"eval.trained_s", "s"},
    {"eval.hybrid_s", "s"},
    {"eval.bootstrap_s", "s"},
    {"eval.test_processes", "count"},
    {"eval.hybrid_rel_cost", "ratio"},
    {"eval.trained_coverage", "ratio"},
    {"core.replay_s", "s"},
    {"core.calls", "count"},
    {"core.call_us_p50", "us"},
    {"core.call_us_p9999", "us"},
    {"core.symptom_us_p50", "us"},
    {"core.decide_us_p50", "us"},
    {"core.decide_us_p9999", "us"},
    {"core.result_us_p50", "us"},
    {"core.result_us_p9999", "us"},
    {"core.history_max", "count"},
    {"core.evictions", "count"},
    {"fleet.run_s", "s"},
    {"fleet.events", "count"},
    {"fleet.events_per_s", "1/s"},
    {"fleet.arrivals_skipped", "count"},
    {"setup.fleet_s", "s"},
    {"setup.serialize_s", "s"},
    {"setup.policy_s", "s"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.self_time_coverage", "ratio"},
    {"host.probe_s", "s"},
};

// Name -> value over one catalog; names outside it are a program error.
class Metrics {
 public:
  template <std::size_t N>
  explicit Metrics(const MetricDef (&catalog)[N])
      : catalog_(catalog, catalog + N) {
    for (const MetricDef& def : catalog_) values_[def.name] = 0.0;
  }

  void Set(const std::string& name, double value) { Slot(name) = value; }
  double Get(const std::string& name) { return Slot(name); }
  bool Has(const std::string& name) const { return values_.contains(name); }

  // {"name": {"value": v, "unit": "u"}, ...} in catalog order.
  std::string ToJson() {
    std::string out = "{";
    for (const MetricDef& def : catalog_) {
      if (out.size() > 1) out += ", ";
      out += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       def.name, Get(def.name), def.unit);
    }
    return out + "}";
  }

  void Print() {
    for (const MetricDef& def : catalog_) {
      std::printf("  %-26s %14.6g %s\n", def.name, Get(def.name), def.unit);
    }
  }

 private:
  double& Slot(const std::string& name) {
    const auto it = values_.find(name);
    AER_CHECK(it != values_.end()) << "metric not in catalog: " << name;
    return it->second;
  }

  std::vector<MetricDef> catalog_;
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile of nanosecond samples, in microseconds.
double QuantileUs(std::vector<std::int64_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[index - 1]) / 1000.0;
}

// FNV-1a 64 over a pass's outputs, folded the way bench/bench_json.cc's
// BenchRecord::FoldChecksum folds a bench's series (doubles at %.17g).
class Fnv {
 public:
  void Fold(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  void FoldDouble(double v) { Fold(StrFormat("%.17g,", v)); }
  void FoldInt(std::int64_t v) {
    Fold(StrFormat("%lld,", static_cast<long long>(v)));
  }
  // Every entry as a fixed-width binary record (bench_fleet_scale's FoldLog).
  void FoldLog(const RecoveryLog& log) {
    for (const LogEntry& entry : log.entries()) {
      const std::uint64_t packed[3] = {
          static_cast<std::uint64_t>(entry.time),
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(entry.machine))
           << 32) |
              static_cast<std::uint32_t>(entry.kind),
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(entry.symptom))
           << 32) |
              static_cast<std::uint32_t>(entry.action),
      };
      Fold(std::string_view(reinterpret_cast<const char*>(packed),
                            sizeof(packed)));
    }
  }
  std::string Hex() const {
    return StrFormat("%016llx", static_cast<unsigned long long>(hash_));
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string FnvHex(std::string_view bytes) {
  Fnv fnv;
  fnv.Fold(bytes);
  return fnv.Hex();
}

// Peak RSS of one pass. Freed memory of earlier passes and of set-up is
// first handed back to the kernel, so every pass starts from the live
// inputs alone, as a fresh process would; then writing 5 to clear_refs
// resets VmHWM to the current RSS (Linux >= 4.0).
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  if (out.is_open()) out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (in.good() && std::getline(in, line)) {
    if (!StartsWith(line, "VmHWM:")) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

// Host speed probe. On a shared host the same pass can run 80% slower a
// minute later, on every workload alike. So each set-up repetition and each
// pass is bracketed by this fixed kernel (hash-map inserts and a sort over
// generated keys; no library code), and the end-to-end times are rescaled
// by reference probe time / measured probe time: they read as seconds on
// the reference host, a 4-vCPU Xeon VM whose probe takes these times at
// its median speed (one thread alone; every pool thread at once).
constexpr double kReferenceProbeSeconds = 0.05;
constexpr double kReferenceParallelProbeSeconds = 0.054;

std::atomic<std::uint64_t> probe_sink{0};  // keeps the kernel's work live

double ProbeKernelSeconds(std::uint64_t salt) {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ salt;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < 150000; ++i) ++counts[next() % 400009];
  std::vector<std::uint64_t> keys(400000);
  for (std::uint64_t& key : keys) key = next();
  std::sort(keys.begin(), keys.end());
  probe_sink.fetch_add(keys[keys.size() / 2] + counts.size(),
                       std::memory_order_relaxed);
  return SecondsSince(start);
}

// The probe on the calling thread, or — for workloads that run on the pool
// — one kernel per pool thread at once, averaged.
double ProbeSeconds(ThreadPool* pool, int threads) {
  if (pool == nullptr) return ProbeKernelSeconds(0);
  std::vector<double> seconds(static_cast<std::size_t>(threads), 0.0);
  pool->ParallelFor(seconds.size(), [&](std::size_t t) {
    seconds[t] = ProbeKernelSeconds(t);
  });
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum / threads;
}

std::string Serialize(const RecoveryLog& log) {
  std::ostringstream out;
  log.Write(out);
  return std::move(out).str();
}

std::string PolicyText(const TrainedPolicy& policy) {
  std::ostringstream out;
  policy.Write(out);
  return std::move(out).str();
}

// A fleet log under the user-defined policy: ClusterSimConfig's default
// workload, sharded over the pool (the output is identical for any thread
// count, docs/FLEET_SIM.md).
SimulationResult GenerateFleet(int machines, int days, std::uint64_t seed,
                               ThreadPool& pool) {
  fleet::FleetSimConfig config;
  config.sim.num_machines = machines;
  config.sim.duration = days * kDay;
  config.sim.seed = seed;
  fleet::FleetSimulator sim(config, MakeDefaultCatalog());
  UserDefinedPolicy policy;
  return sim.Run(policy, &pool);
}

// Fleet log generation plus its text form, the input of the offline
// workloads.
std::string GenerateLogText(int machines, int days, std::uint64_t seed,
                            ThreadPool& pool, SpanTrace* trace, int parent) {
  SimulationResult fleet;
  {
    ScopedSpan span(trace, "setup.fleet", parent);
    fleet = GenerateFleet(machines, days, seed, pool);
  }
  ScopedSpan span(trace, "setup.serialize", parent);
  return Serialize(fleet.log);
}

// The median of each input's passes, then the mean over inputs: every input
// weighs the same whatever number of passes it got.
double InputMean(const std::vector<std::vector<double>>& by_input) {
  double sum = 0.0;
  int inputs = 0;
  for (const std::vector<double>& passes : by_input) {
    if (passes.empty()) continue;
    sum += Median(passes);
    ++inputs;
  }
  return inputs == 0 ? 0.0 : sum / inputs;
}

template <typename T>
double MedianOf(const std::vector<T>& passes, double T::*field) {
  std::vector<double> values;
  for (const T& pass : passes) values.push_back(pass.*field);
  return Median(values);
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct PassOutput {
  std::string checksum;
  std::int64_t events = 0;  // work items: the events_per_s numerator
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool outputs_ok = true;  // workload-specific output checks
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from the seed; returns their checksum.
  virtual std::string Setup(SpanTrace* trace, int parent) = 0;
  // Number of distinct inputs the passes cycle through.
  virtual int Inputs() const { return 1; }
  // One pass of the timed section over input `input`; a null trace records
  // nothing. The pass keeps its outputs for Check().
  virtual void RunPass(SpanTrace* trace, int root, int input) = 0;
  // Untimed follow-up of a traced pass (extra per-layer measurements).
  virtual void AfterTracedPass() {}
  // Untimed: checksums and checks the last pass's outputs, then drops them.
  virtual PassOutput Check() = 0;
  // Per-layer metrics that are not span self times (traced passes only).
  virtual void LayerMetrics(Metrics& out) const = 0;
  // True when the timed section runs on the thread pool.
  virtual bool UsesPool() const = 0;
  virtual std::string Describe() const = 0;
  // Workload-specific lines after the timed section.
  virtual void PrintSummary() const {}
};

// --- retrain ---------------------------------------------------------------

// One cluster's log per pass, cycling through the cluster logs. The training
// cost of one log depends strongly on its data (the tree scan's candidate
// sets): over seeds 1-10 the serial retrain time of a 2000-machine log has
// an interquartile spread of 15%. A run's mean over ten distinct logs
// averages that out; repeating one log would not.
class RetrainWorkload final : public Workload {
 public:
  RetrainWorkload(bool smoke, std::uint64_t seed, ThreadPool& pool)
      : machines_(smoke ? 300 : 2000),
        clusters_(smoke ? 2 : 10),
        seed_(seed),
        pool_(pool) {
    config_.trainer.max_sweeps = 40000;  // bench_common's experiment config
    config_.use_selection_tree = true;
  }

  std::string Describe() const override {
    std::size_t bytes = 0;
    for (const std::string& text : texts_) bytes += text.size();
    return StrFormat("%d clusters of %d machines x %d days, %zu bytes of "
                     "log text",
                     clusters_, machines_, kDays, bytes);
  }

  std::string Setup(SpanTrace* trace, int parent) override {
    texts_.clear();
    Fnv fnv;
    for (int c = 0; c < clusters_; ++c) {
      texts_.push_back(GenerateLogText(
          machines_, kDays, DeriveStream(seed_, static_cast<std::uint64_t>(c)),
          pool_, trace, parent));
      fnv.Fold(texts_.back());
    }
    return fnv.Hex();
  }

  int Inputs() const override { return clusters_; }

  void RunPass(SpanTrace* trace, int root, int input) override {
    pass_ = std::make_unique<Pass>();
    Pass& pass = *pass_;
    pass.traced = trace != nullptr;
    pass.bytes = texts_[static_cast<std::size_t>(input)].size();
    {
      ScopedSpan span(trace, "log.parse", root);
      std::istringstream in(texts_[static_cast<std::size_t>(input)]);
      pass.parsed = RecoveryLog::Read(in, pass.log, LogParseMode::kStrict).ok;
    }
    {
      ScopedSpan span(trace, "log.segment", root);
      pass.segmented = SegmentIntoProcesses(pass.log);
    }
    std::optional<SymptomClustering> clustering;
    {
      ScopedSpan span(trace, "mining.cluster", root);
      clustering.emplace(pass.segmented.processes, MPatternConfig{});
    }
    pass.clusters = clustering->clusters().size();
    {
      ScopedSpan span(trace, "mining.filter", root);
      const NoiseFilterResult filtered =
          FilterNoisyProcesses(pass.segmented.processes, *clustering);
      pass.clean.reserve(filtered.clean.size());
      for (const std::size_t i : filtered.clean) {
        pass.clean.push_back(pass.segmented.processes[i]);
      }
    }
    {
      ScopedSpan span(trace, "mining.types", root);  // the type catalog
      pass.runner = std::make_unique<ExperimentRunner>(
          pass.clean, pass.log.symptoms(), config_);
    }
    pass.result = trace == nullptr ? pass.runner->RunOne(kTrain, &pool_)
                                   : TracedRunOne(pass, trace, root);
    {
      ScopedSpan span(trace, "eval.bootstrap", root);
      pass.interval =
          BootstrapRatioCI(pass.result.hybrid.samples, 2000, 0.95, 1, &pool_);
    }
  }

  // rl.sweep_s: the Q-learning sweeps the tree trainer ran, without its
  // scan — each type re-run on a plain trainer for exactly the episodes it
  // took under the selection tree (same RNG stream, same updates).
  void AfterTracedPass() override {
    const Pass& pass = *pass_;
    const std::vector<TypeTrainingResult>& types = pass.result.training;
    std::vector<double> seconds(types.size(), 0.0);
    pool_.ParallelFor(types.size(), [&](std::size_t t) {
      const std::int64_t episodes = types[t].episodes;
      if (episodes == 0) return;
      TrainerConfig config = config_.trainer;
      config.min_sweeps = episodes;
      config.max_sweeps = episodes;
      const Clock::time_point start = Clock::now();
      const QLearningTrainer plain(*pass.train_platform, pass.split.train,
                                   config);
      AER_CHECK_EQ(plain.TrainType(static_cast<ErrorTypeId>(t)).episodes,
                   episodes);
      seconds[t] = SecondsSince(start);
    });
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    sweep_seconds_.push_back(sum);
  }

  PassOutput Check() override {
    const Pass& pass = *pass_;
    const ExperimentResult& result = pass.result;
    Fnv fnv;
    fnv.Fold(PolicyText(result.policy));
    for (const EvalSummary* summary : {&result.trained, &result.hybrid}) {
      fnv.FoldInt(summary->total_processes);
      fnv.FoldInt(summary->total_handled);
      fnv.FoldDouble(summary->total_actual_cost);
      fnv.FoldDouble(summary->total_policy_cost);
      fnv.FoldDouble(summary->overall_relative_cost);
      fnv.FoldDouble(summary->overall_coverage);
    }
    fnv.FoldDouble(pass.interval.point);
    fnv.FoldDouble(pass.interval.low);
    fnv.FoldDouble(pass.interval.high);

    PassOutput out;
    out.checksum = fnv.Hex();
    out.events = static_cast<std::int64_t>(pass.log.size());
    out.attempted = result.hybrid.total_processes;
    out.failed = result.hybrid.total_processes - result.hybrid.total_handled;
    // The paper's claims (ROADMAP 4a) at this log size: the hybrid handles
    // every test process, and its cost relative to the user-defined policy
    // is below 0.90 within the 95% bootstrap interval. (The point estimate
    // alone exceeds 0.90 on about one 2000-machine log in 50: seed 12 gives
    // 0.905.)
    const bool claims = result.hybrid.overall_coverage == 1.0 &&
                        pass.interval.low < 0.90;
    out.outputs_ok = pass.parsed && claims;
    claims_held_ += claims ? 1 : 0;
    hybrid_rel_cost_.push_back(result.hybrid.overall_relative_cost);

    if (pass.traced) {
      Counts counts;
      counts.hybrid_rel_cost = result.hybrid.overall_relative_cost;
      counts.trained_coverage = result.trained.overall_coverage;
      const double entries = static_cast<double>(pass.log.size());
      counts.entries = entries;
      counts.bytes = static_cast<double>(pass.bytes);
      counts.dropped_frac = (pass.segmented.incomplete +
                             pass.segmented.orphan_entries) /
                            entries;
      counts.clusters = static_cast<double>(pass.clusters);
      counts.clean_frac =
          static_cast<double>(pass.clean.size()) /
          static_cast<double>(pass.segmented.processes.size());
      counts.test_processes = static_cast<double>(result.test_processes);
      int converged = 0;
      for (const TypeTrainingResult& r : result.training) {
        counts.episodes += static_cast<double>(r.episodes);
        converged += r.converged ? 1 : 0;
      }
      counts.converged_frac = static_cast<double>(converged) /
                              static_cast<double>(result.training.size());
      counts_.push_back(counts);
    }
    pass_.reset();
    return out;
  }

  void LayerMetrics(Metrics& out) const override {
    out.Set("log.entries", MedianOf(counts_, &Counts::entries));
    out.Set("log.bytes", MedianOf(counts_, &Counts::bytes));
    out.Set("log.dropped_frac", MedianOf(counts_, &Counts::dropped_frac));
    out.Set("mining.clusters", MedianOf(counts_, &Counts::clusters));
    out.Set("mining.clean_frac", MedianOf(counts_, &Counts::clean_frac));
    out.Set("rl.episodes", MedianOf(counts_, &Counts::episodes));
    out.Set("rl.converged_frac", MedianOf(counts_, &Counts::converged_frac));
    out.Set("rl.sweep_s", Median(sweep_seconds_));
    out.Set("eval.test_processes", MedianOf(counts_, &Counts::test_processes));
    out.Set("eval.hybrid_rel_cost",
            MedianOf(counts_, &Counts::hybrid_rel_cost));
    out.Set("eval.trained_coverage",
            MedianOf(counts_, &Counts::trained_coverage));
  }

  bool UsesPool() const override { return true; }

  void PrintSummary() const override {
    const auto [low, high] = std::minmax_element(hybrid_rel_cost_.begin(),
                                                 hybrid_rel_cost_.end());
    std::printf("claims held on %d of %zu passes; hybrid relative cost "
                "%.4f..%.4f\n",
                claims_held_, hybrid_rel_cost_.size(), *low, *high);
  }

 private:
  static constexpr int kDays = 180;
  static constexpr double kTrain = 0.8;  // test 4

  struct Pass {
    bool traced = false;
    bool parsed = false;
    std::size_t bytes = 0;  // of the input log text
    RecoveryLog log;
    SegmentationResult segmented;
    std::size_t clusters = 0;
    std::vector<RecoveryProcess> clean;
    std::unique_ptr<ExperimentRunner> runner;
    ExperimentResult result;
    BootstrapInterval interval;
    // Traced passes only: what AfterTracedPass re-runs the sweeps on.
    TrainTestSplit split;
    std::unique_ptr<SimulationPlatform> train_platform;
  };

  struct Counts {
    double entries = 0, bytes = 0, dropped_frac = 0, clusters = 0;
    double clean_frac = 0, hybrid_rel_cost = 0, trained_coverage = 0;
    double test_processes = 0, episodes = 0, converged_frac = 0;
  };

  // ExperimentRunner::RunOne step by step (eval/experiment.cc), with a span
  // per layer call and one detail span per error type. Traced and untraced
  // passes must produce the same checksum, which folds the policy bytes, so
  // the per-type policy trained here is byte-identical to RunOne's.
  ExperimentResult TracedRunOne(Pass& pass, SpanTrace* trace, int root) {
    const ErrorTypeCatalog& types = pass.runner->types();
    const SymptomTable& symptoms = pass.log.symptoms();
    ExperimentResult result;
    result.train_fraction = kTrain;
    {
      ScopedSpan span(trace, "eval.split", root);
      pass.split = SplitByTime(pass.clean, kTrain);
    }
    const TrainTestSplit& split = pass.split;
    result.train_processes = static_cast<std::int64_t>(split.train.size());
    result.test_processes = static_cast<std::int64_t>(split.test.size());
    {
      ScopedSpan span(trace, "sim.platform", root);
      pass.train_platform = std::make_unique<SimulationPlatform>(
          split.train, types, symptoms, config_.trainer.max_actions);
    }
    {
      ScopedSpan train(trace, "rl.train", root);
      const QLearningTrainer trainer(*pass.train_platform, split.train,
                                     config_.trainer);
      const SelectionTreeTrainer tree(trainer, config_.tree);
      std::vector<TypeTrainingResult> per_type(types.num_types());
      pool_.ParallelFor(per_type.size(), [&](std::size_t t) {
        ScopedSpan span(trace, "rl.type", train.id(), /*detail=*/true);
        per_type[t] = tree.TrainType(static_cast<ErrorTypeId>(t));
      });
      // ParallelTrainer::TrainAll's merge, in catalog order.
      for (std::size_t t = 0; t < per_type.size(); ++t) {
        if (!per_type[t].sequence.empty()) {
          result.policy.AddType(
              {std::string(symptoms.Name(
                   types.symptom_of(static_cast<ErrorTypeId>(t)))),
               per_type[t].sequence});
        }
        result.training.push_back(std::move(per_type[t]));
      }
    }
    std::optional<SimulationPlatform> test_platform;
    {
      ScopedSpan span(trace, "sim.platform", root);
      test_platform.emplace(split.test, types, symptoms,
                            config_.trainer.max_actions);
    }
    const PolicyEvaluator evaluator(*test_platform);
    {
      ScopedSpan span(trace, "eval.trained", root);
      result.trained = evaluator.EvaluateTrained(result.policy, split.test);
    }
    {
      ScopedSpan span(trace, "eval.hybrid", root);
      UserDefinedPolicy user(config_.user_policy);
      HybridPolicy hybrid(result.policy, user);
      result.hybrid = evaluator.EvaluateFull(hybrid, split.test);
    }
    return result;
  }

  const int machines_;
  const int clusters_;
  const std::uint64_t seed_;
  ThreadPool& pool_;
  ExperimentConfig config_;
  std::vector<std::string> texts_;  // one log per cluster
  std::unique_ptr<Pass> pass_;
  std::vector<Counts> counts_;
  std::vector<double> sweep_seconds_;
  std::vector<double> hybrid_rel_cost_;  // every pass
  int claims_held_ = 0;
};

// --- mine ------------------------------------------------------------------

class MineWorkload final : public Workload {
 public:
  MineWorkload(bool smoke, std::uint64_t seed, ThreadPool& pool)
      : machines_(smoke ? 400 : 8000), seed_(seed), pool_(pool) {}

  std::string Describe() const override {
    return StrFormat("%d machines x %d days, %zu bytes of log text",
                     machines_, kDays, text_.size());
  }

  std::string Setup(SpanTrace* trace, int parent) override {
    text_ = GenerateLogText(machines_, kDays, seed_, pool_, trace, parent);
    return FnvHex(text_);
  }

  void RunPass(SpanTrace* trace, int root, int /*input*/) override {
    pass_ = std::make_unique<Pass>();
    Pass& pass = *pass_;
    pass.traced = trace != nullptr;
    {
      ScopedSpan span(trace, "log.parse", root);
      std::istringstream in(text_);
      pass.parse = RecoveryLog::Read(in, pass.log, LogParseMode::kLenient);
    }
    {
      ScopedSpan span(trace, "log.report", root);
      pass.report = FormatLogReport(BuildLogReport(pass.log, pass.parse),
                                    pass.log.symptoms());
    }
    SegmentationResult segmented;
    {
      ScopedSpan span(trace, "log.segment", root);
      segmented = SegmentIntoProcesses(pass.log);
    }
    pass.processes = segmented.processes.size();
    pass.dropped = segmented.incomplete + segmented.orphan_entries;
    {
      ScopedSpan span(trace, "mining.sweep", root);  // Figure 3
      std::vector<double> minp;
      for (int i = 1; i <= 10; ++i) minp.push_back(i / 10.0);
      pass.fractions = CohesiveFractionSweep(segmented.processes, minp);
    }
    std::optional<SymptomClustering> clustering;
    {
      ScopedSpan span(trace, "mining.cluster", root);
      clustering.emplace(segmented.processes, MPatternConfig{});
    }
    pass.clusters = clustering->clusters().size();
    {
      ScopedSpan span(trace, "mining.filter", root);
      const NoiseFilterResult filtered =
          FilterNoisyProcesses(segmented.processes, *clustering);
      pass.clean.reserve(filtered.clean.size());
      for (const std::size_t i : filtered.clean) {
        pass.clean.push_back(segmented.processes[i]);
      }
    }
    {
      ScopedSpan span(trace, "mining.types", root);
      pass.types.emplace(pass.clean, 40);
      pass.ranked = RankErrorTypes(pass.clean);
    }
  }

  PassOutput Check() override {
    const Pass& pass = *pass_;
    const SymptomTable& symptoms = pass.log.symptoms();
    Fnv fnv;
    fnv.FoldInt(static_cast<std::int64_t>(pass.parse.parsed));
    fnv.FoldInt(static_cast<std::int64_t>(pass.parse.repaired));
    fnv.FoldInt(static_cast<std::int64_t>(pass.parse.skipped));
    fnv.Fold(pass.report);
    for (const double f : pass.fractions) fnv.FoldDouble(f);
    for (std::size_t t = 0; t < pass.types->num_types(); ++t) {
      const auto type = static_cast<ErrorTypeId>(t);
      fnv.Fold(symptoms.Name(pass.types->symptom_of(type)));
      fnv.FoldInt(pass.types->count_of(type));
    }
    fnv.FoldDouble(pass.types->coverage());
    for (const ErrorTypeStat& stat : pass.ranked) {
      fnv.Fold(symptoms.Name(stat.type));
      fnv.FoldInt(stat.process_count);
      fnv.FoldInt(stat.total_downtime);
    }

    PassOutput out;
    out.checksum = fnv.Hex();
    out.events = static_cast<std::int64_t>(pass.log.size());
    out.attempted =
        static_cast<std::int64_t>(pass.parse.parsed + pass.parse.skipped);
    out.failed = static_cast<std::int64_t>(pass.parse.skipped);
    out.outputs_ok = pass.parse.ok;
    if (pass.traced) {
      const double entries = static_cast<double>(pass.log.size());
      entries_ = entries;
      dropped_frac_ = pass.dropped / entries;
      clusters_ = static_cast<double>(pass.clusters);
      clean_frac_ = static_cast<double>(pass.clean.size()) /
                    static_cast<double>(pass.processes);
    }
    pass_.reset();
    return out;
  }

  void LayerMetrics(Metrics& out) const override {
    out.Set("log.entries", entries_);
    out.Set("log.bytes", static_cast<double>(text_.size()));
    out.Set("log.dropped_frac", dropped_frac_);
    out.Set("mining.clusters", clusters_);
    out.Set("mining.clean_frac", clean_frac_);
  }

  bool UsesPool() const override { return false; }

 private:
  static constexpr int kDays = 180;

  struct Pass {
    bool traced = false;
    RecoveryLog log;
    LogParseResult parse;
    std::string report;
    std::size_t processes = 0;
    double dropped = 0;  // incomplete processes + orphan entries
    std::vector<double> fractions;
    std::size_t clusters = 0;
    std::vector<RecoveryProcess> clean;
    std::optional<ErrorTypeCatalog> types;
    std::vector<ErrorTypeStat> ranked;
  };

  const int machines_;
  const std::uint64_t seed_;
  ThreadPool& pool_;
  std::string text_;
  std::unique_ptr<Pass> pass_;
  double entries_ = 0, dropped_frac_ = 0, clusters_ = 0, clean_frac_ = 0;
};

// --- online ----------------------------------------------------------------

// Times the wrapped policy's ChooseAction from outside (the rl layer's share
// of a manager decision).
class TimedPolicy final : public RecoveryPolicy {
 public:
  TimedPolicy(RecoveryPolicy& inner, std::vector<std::int64_t>& samples)
      : inner_(inner), samples_(samples) {}

  RepairAction ChooseAction(const RecoveryContext& context) override {
    const Clock::time_point start = Clock::now();
    const RepairAction action = inner_.ChooseAction(context);
    samples_.push_back((Clock::now() - start).count());
    return action;
  }
  void OnActionOutcome(const RecoveryContext& context, RepairAction action,
                       SimTime cost, bool cured) override {
    inner_.OnActionOutcome(context, action, cost, cured);
  }
  std::string_view name() const override { return inner_.name(); }

 private:
  RecoveryPolicy& inner_;
  std::vector<std::int64_t>& samples_;
};

class OnlineWorkload final : public Workload {
 public:
  OnlineWorkload(bool smoke, std::uint64_t seed, ThreadPool& pool)
      : policy_machines_(smoke ? 100 : 200),
        incident_machines_(smoke ? 1000 : 30000),
        seed_(seed),
        pool_(pool) {}

  std::string Describe() const override {
    return StrFormat("policy from %d machines x %d days; %zu incidents from "
                     "%d machines x %d days",
                     policy_machines_, kPolicyDays, incidents_.size(),
                     incident_machines_, kIncidentDays);
  }

  std::string Setup(SpanTrace* trace, int parent) override {
    SimulationResult history;
    SimulationResult incidents;
    {
      ScopedSpan span(trace, "setup.fleet", parent);
      // Distinct streams, so the policy never trains on the replayed faults.
      history = GenerateFleet(policy_machines_, kPolicyDays,
                              DeriveStream(seed_, 1), pool_);
      incidents =
          GenerateFleet(incident_machines_, kIncidentDays, seed_, pool_);
    }
    {
      ScopedSpan span(trace, "setup.policy", parent);
      policy_ = PolicyGenerator().Generate(history.log);
    }
    incidents_.clear();
    for (const RecoveryProcess& process :
         SegmentIntoProcesses(incidents.log).processes) {
      if (process.attempts().empty()) continue;
      incidents_.push_back(
          {process.start_time(), process.machine(),
           incidents.log.symptoms().Name(process.initial_symptom()),
           ActionIndex(process.final_action())});
    }
    Fnv fnv;
    fnv.Fold(PolicyText(policy_));
    for (const Incident& incident : incidents_) {
      fnv.FoldInt(incident.start);
      fnv.FoldInt(incident.machine);
      fnv.Fold(incident.symptom);
      fnv.FoldInt(incident.cure);
    }
    return fnv.Hex();
  }

  // The closed loop: each manager call is issued when the previous one has
  // returned, at the simulated time its event falls due.
  void RunPass(SpanTrace* trace, int root, int /*input*/) override {
    ScopedSpan span(trace, "core.replay", root);
    pass_ = std::make_unique<Pass>(policy_);
    Pass& pass = *pass_;
    pass.traced = trace != nullptr;
    pass.manager = std::make_unique<RecoveryManager>(
        pass.traced ? static_cast<RecoveryPolicy&>(pass.timed)
                    : static_cast<RecoveryPolicy&>(pass.hybrid));
    RecoveryManager& manager = *pass.manager;

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::int64_t sequence = 0;
    const auto push = [&](SimTime time, EventKind kind, int incident,
                          int action) {
      queue.push({time, sequence++, kind, incident, action});
    };
    for (std::size_t i = 0; i < incidents_.size(); ++i) {
      push(incidents_[i].start, EventKind::kSymptom, static_cast<int>(i), 0);
    }
    // An incident that arrives while its machine is still in recovery waits
    // for that process to close, so every incident is a process of its own.
    std::unordered_map<MachineId, std::vector<int>> waiting;
    const auto timed_call = [&](std::vector<std::int64_t>& samples,
                                const auto& call) {
      const Clock::time_point start = Clock::now();
      call();
      samples.push_back((Clock::now() - start).count());
      if (++pass.calls % 1024 == 0) {
        pass.history_max = std::max(pass.history_max, manager.history_size());
      }
    };

    while (!queue.empty()) {
      const Event event = queue.top();
      queue.pop();
      const Incident& incident =
          incidents_[static_cast<std::size_t>(event.incident)];
      switch (event.kind) {
        case EventKind::kSymptom:
          if (manager.HasOpenProcess(incident.machine)) {
            waiting[incident.machine].push_back(event.incident);
            break;
          }
          timed_call(pass.symptom_ns, [&] {
            manager.OnSymptom(event.time, incident.machine, incident.symptom);
          });
          push(event.time + kDetectionDelay, EventKind::kRecoveryNeeded,
               event.incident, 0);
          break;
        case EventKind::kRecoveryNeeded: {
          std::optional<RepairAction> action;
          timed_call(pass.decide_ns, [&] {
            action = manager.OnRecoveryNeeded(event.time, incident.machine);
          });
          if (!action) {
            ++pass.no_decision;
            break;
          }
          const int index = ActionIndex(*action);
          push(event.time + kActionSeconds[static_cast<std::size_t>(index)],
               EventKind::kActionResult, event.incident, index);
          break;
        }
        case EventKind::kActionResult: {
          const bool healthy = event.action >= incident.cure;
          timed_call(pass.result_ns, [&] {
            manager.OnActionResult(event.time, incident.machine, healthy);
          });
          if (!healthy) {
            push(event.time + kRetryDelay, EventKind::kRecoveryNeeded,
                 event.incident, 0);
            break;
          }
          const auto it = waiting.find(incident.machine);
          if (it != waiting.end() && !it->second.empty()) {
            push(event.time + 1, EventKind::kSymptom, it->second.front(), 0);
            it->second.erase(it->second.begin());
          }
          break;
        }
      }
    }
  }

  PassOutput Check() override {
    Pass& pass = *pass_;
    const RecoveryManager& manager = *pass.manager;
    const RecoveryManager::Stats& stats = manager.stats();
    const auto open = static_cast<std::int64_t>(manager.open_process_count());
    Fnv fnv;
    for (const std::int64_t v :
         {stats.processes_completed, stats.actions_taken,
          stats.manual_repairs_forced, stats.total_downtime,
          stats.actions_timed_out, stats.stale_results_ignored,
          stats.out_of_order_events, stats.duplicate_symptoms,
          stats.duplicate_recovery_requests, stats.flap_quarantines,
          stats.history_evictions, stats.processes_adopted, pass.no_decision,
          open}) {
      fnv.FoldInt(v);
    }
    fnv.FoldLog(manager.log());

    PassOutput out;
    out.checksum = fnv.Hex();
    out.events = pass.calls;
    out.attempted = static_cast<std::int64_t>(incidents_.size());
    out.failed = open + pass.no_decision;

    Latency latency;
    std::vector<std::int64_t> all;
    for (const auto* samples :
         {&pass.symptom_ns, &pass.decide_ns, &pass.result_ns}) {
      all.insert(all.end(), samples->begin(), samples->end());
    }
    latency.call_p50 = QuantileUs(all, 0.5);
    latency.call_p9999 = QuantileUs(all, 0.9999);
    latency.symptom_p50 = QuantileUs(pass.symptom_ns, 0.5);
    latency.decide_p50 = QuantileUs(pass.decide_ns, 0.5);
    latency.decide_p9999 = QuantileUs(pass.decide_ns, 0.9999);
    latency.result_p50 = QuantileUs(pass.result_ns, 0.5);
    latency.result_p9999 = QuantileUs(pass.result_ns, 0.9999);
    latency.policy_p50 = QuantileUs(pass.policy_ns, 0.5);
    latency.policy_calls = static_cast<double>(pass.policy_ns.size());
    latency.calls = static_cast<double>(pass.calls);
    latency.history_max = static_cast<double>(pass.history_max);
    latency.evictions = static_cast<double>(stats.history_evictions);
    latency.entries = static_cast<double>(manager.log().size());
    (pass.traced ? traced_ : untraced_).push_back(latency);
    pass_.reset();
    return out;
  }

  void LayerMetrics(Metrics& out) const override {
    out.Set("log.entries", MedianOf(traced_, &Latency::entries));
    out.Set("rl.policy_us_p50", MedianOf(traced_, &Latency::policy_p50));
    out.Set("rl.policy_calls", MedianOf(traced_, &Latency::policy_calls));
    out.Set("core.calls", MedianOf(traced_, &Latency::calls));
    out.Set("core.call_us_p50", MedianOf(traced_, &Latency::call_p50));
    out.Set("core.call_us_p9999", MedianOf(traced_, &Latency::call_p9999));
    out.Set("core.symptom_us_p50", MedianOf(traced_, &Latency::symptom_p50));
    out.Set("core.decide_us_p50", MedianOf(traced_, &Latency::decide_p50));
    out.Set("core.decide_us_p9999",
            MedianOf(traced_, &Latency::decide_p9999));
    out.Set("core.result_us_p50", MedianOf(traced_, &Latency::result_p50));
    out.Set("core.result_us_p9999",
            MedianOf(traced_, &Latency::result_p9999));
    out.Set("core.history_max", MedianOf(traced_, &Latency::history_max));
    out.Set("core.evictions", MedianOf(traced_, &Latency::evictions));
  }

  bool UsesPool() const override { return false; }

  // Per-pass p99.99 has >= 10 samples beyond it from 100k calls up; the
  // full size makes ~236k calls per pass.
  void PrintSummary() const override {
    if (untraced_.empty()) return;
    std::printf("manager calls per pass: %.0f; latency (median over "
                "untraced passes): p50 %.3f us, p99.99 %.3f us\n",
                untraced_.back().calls, MedianOf(untraced_, &Latency::call_p50),
                MedianOf(untraced_, &Latency::call_p9999));
  }

 private:
  static constexpr int kPolicyDays = 180;
  // Longer than RecoveryManagerConfig::history_retention (30 days), so the
  // manager's history eviction runs.
  static constexpr int kIncidentDays = 45;
  static constexpr SimTime kDetectionDelay = 300;
  static constexpr SimTime kRetryDelay = 60;
  // Execution time per action index: TRYNOP, REBOOT, REIMAGE, RMA.
  static constexpr SimTime kActionSeconds[kNumActions] = {60, 900, 7200,
                                                          28800};

  struct Incident {
    SimTime start = 0;
    MachineId machine = 0;
    std::string symptom;
    int cure = 0;  // weakest action index that heals: the logged final one
  };

  enum class EventKind : int { kSymptom, kRecoveryNeeded, kActionResult };

  struct Event {
    SimTime time = 0;
    std::int64_t sequence = 0;
    EventKind kind = EventKind::kSymptom;
    int incident = 0;
    int action = 0;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time
                                : sequence > other.sequence;
    }
  };

  struct Pass {
    explicit Pass(const TrainedPolicy& trained)
        : hybrid(trained, user), timed(hybrid, policy_ns) {}
    bool traced = false;
    std::vector<std::int64_t> symptom_ns, decide_ns, result_ns, policy_ns;
    UserDefinedPolicy user;
    HybridPolicy hybrid;
    TimedPolicy timed;  // wraps `hybrid` in traced passes
    std::unique_ptr<RecoveryManager> manager;
    std::int64_t calls = 0;
    std::int64_t no_decision = 0;  // nullopt decisions on open processes
    std::size_t history_max = 0;   // sampled every 1024 calls
  };

  struct Latency {
    double call_p50 = 0, call_p9999 = 0, symptom_p50 = 0, decide_p50 = 0;
    double decide_p9999 = 0, result_p50 = 0, result_p9999 = 0;
    double policy_p50 = 0, policy_calls = 0, calls = 0, history_max = 0;
    double evictions = 0, entries = 0;
  };

  const int policy_machines_;
  const int incident_machines_;
  const std::uint64_t seed_;
  ThreadPool& pool_;
  TrainedPolicy policy_;
  std::vector<Incident> incidents_;
  std::unique_ptr<Pass> pass_;
  std::vector<Latency> untraced_, traced_;
};

// --- fleet -----------------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(bool smoke, std::uint64_t seed, ThreadPool& pool)
      : pool_(pool) {
    // bench_fleet_scale's arm config, with the seed from the command line.
    config_.sim.num_machines = smoke ? 5000 : 50000;
    config_.sim.duration = (smoke ? 7 : 28) * kDay;
    config_.sim.machine_mtbf_days = 10.0;
    config_.sim.machine_speed_spread = 0.2;
    config_.sim.diurnal_amplitude = 0.3;
    config_.sim.seed = seed;
    config_.num_shards = 64;
  }

  std::string Describe() const override {
    return StrFormat("%d machines x %lld days, %d shards",
                     config_.sim.num_machines,
                     static_cast<long long>(config_.sim.duration / kDay),
                     config_.num_shards);
  }

  // The expected output: the same run on one thread. Sharded runs must be
  // byte-identical to it for any thread count (docs/FLEET_SIM.md).
  std::string Setup(SpanTrace* trace, int parent) override {
    SimulationResult reference;
    {
      ScopedSpan span(trace, "setup.fleet", parent);
      fleet::FleetSimulator sim(config_, MakeDefaultCatalog());
      UserDefinedPolicy policy;
      reference = sim.Run(policy, nullptr);
    }
    ScopedSpan span(trace, "setup.serialize", parent);
    reference_log_ = FnvHex(Serialize(reference.log));
    return reference_log_;
  }

  void RunPass(SpanTrace* trace, int root, int /*input*/) override {
    pass_ = std::make_unique<Pass>();
    Pass& pass = *pass_;
    pass.traced = trace != nullptr;
    {
      ScopedSpan span(trace, "fleet.run", root);
      const Clock::time_point start = Clock::now();
      fleet::FleetSimulator sim(config_, MakeDefaultCatalog());
      sim.SetMetrics(&pass.registry);
      UserDefinedPolicy policy;
      pass.result = sim.Run(policy, &pool_);
      pass.run_s = SecondsSince(start);
    }
    ScopedSpan span(trace, "log.write", root);
    pass.text = Serialize(pass.result.log);
  }

  PassOutput Check() override {
    Pass& pass = *pass_;
    const auto counter = [&](const char* name) {
      return pass.registry.GetCounter(name).value();
    };
    const std::int64_t events = counter("aer_fleet_events_total");
    const std::int64_t arrivals = counter("aer_fleet_arrivals_total");
    const std::int64_t skipped = counter("aer_fleet_arrivals_skipped_total");
    const std::int64_t processes = counter("aer_fleet_processes_total");
    const std::string log_hex = FnvHex(pass.text);
    Fnv fnv;
    fnv.Fold(log_hex);
    for (const std::int64_t v :
         {events, arrivals, skipped, processes,
          counter("aer_fleet_downtime_seconds_total")}) {
      fnv.FoldInt(v);
    }

    PassOutput out;
    out.checksum = fnv.Hex();
    out.events = events;
    out.attempted = arrivals;
    out.failed = arrivals - skipped - processes;
    out.outputs_ok = log_hex == reference_log_;
    if (pass.traced) {
      events_ = static_cast<double>(events);
      skipped_ = static_cast<double>(skipped);
      entries_ = static_cast<double>(pass.result.log.size());
      bytes_ = static_cast<double>(pass.text.size());
      events_per_s_.push_back(static_cast<double>(events) / pass.run_s);
    }
    pass_.reset();
    return out;
  }

  void LayerMetrics(Metrics& out) const override {
    out.Set("fleet.events", events_);
    out.Set("fleet.events_per_s", Median(events_per_s_));
    out.Set("fleet.arrivals_skipped", skipped_);
    out.Set("log.entries", entries_);
    out.Set("log.bytes", bytes_);
  }

  bool UsesPool() const override { return true; }

 private:
  struct Pass {
    bool traced = false;
    obs::MetricsRegistry registry;
    SimulationResult result;
    double run_s = 0.0;
    std::string text;
  };

  fleet::FleetSimConfig config_;
  ThreadPool& pool_;
  std::string reference_log_;
  std::unique_ptr<Pass> pass_;
  double events_ = 0, skipped_ = 0, entries_ = 0, bytes_ = 0;
  std::vector<double> events_per_s_;
};

// ---------------------------------------------------------------------------
// Command line and the measurement loop.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_path;  // empty: untraced run
};

constexpr const char* kUsage =
    "usage: bench_e2e --workload retrain|mine|online|fleet --seed S\n"
    "                 [--seconds T] [--size full|smoke] [--trace FILE]\n";

std::optional<Options> ParseOptions(int argc, char** argv) {
  if (argc % 2 != 1) return std::nullopt;
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const std::optional<std::int64_t> seed = ParseInt64(value);
      if (!seed || *seed < 0) return std::nullopt;
      options.seed = static_cast<std::uint64_t>(*seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::optional<double> seconds = ParseDouble(value);
      if (!seconds || !(*seconds >= 0.0)) return std::nullopt;
      options.seconds = *seconds;
    } else if (flag == "--size" && (value == "full" || value == "smoke")) {
      options.smoke = value == "smoke";
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_seed || options.workload.empty()) return std::nullopt;
  return options;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options,
                                       ThreadPool& pool) {
  const std::string& name = options.workload;
  if (name == "retrain") {
    return std::make_unique<RetrainWorkload>(options.smoke, options.seed,
                                             pool);
  }
  if (name == "mine") {
    return std::make_unique<MineWorkload>(options.smoke, options.seed, pool);
  }
  if (name == "online") {
    return std::make_unique<OnlineWorkload>(options.smoke, options.seed,
                                            pool);
  }
  if (name == "fleet") {
    return std::make_unique<FleetWorkload>(options.smoke, options.seed, pool);
  }
  return nullptr;
}

// Per-layer metrics derived from the spans: for each set-up repetition and
// each traced pass, the self time of every layer span summed by name
// (metric `<name>_s`, median over repetitions or passes); the per-type
// detail spans of `rl.train`; and the share of each pass its layer spans
// account for.
void SpanMetrics(const std::vector<SpanRecord>& spans,
                 const std::vector<int>& pass_roots,
                 const std::vector<int>& setup_roots, int pool_threads,
                 Metrics& out) {
  std::vector<int> root_of(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    root_of[i] = parent == kNoSpan ? static_cast<int>(i)
                                   : root_of[static_cast<std::size_t>(parent)];
  }
  const auto by_name = [&](const std::vector<int>& roots) {
    std::map<std::string, std::vector<double>> values;
    for (std::size_t r = 0; r < roots.size(); ++r) {
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const int id = static_cast<int>(i);
        if (id == roots[r] || spans[i].detail || root_of[i] != roots[r]) {
          continue;
        }
        std::vector<double>& v = values[spans[i].name];
        v.resize(roots.size(), 0.0);
        v[r] += SpanTrace::SelfSeconds(spans, id);
      }
    }
    for (const auto& [name, v] : values) {
      if (out.Has(name + "_s")) out.Set(name + "_s", Median(v));
    }
  };
  by_name(pass_roots);
  by_name(setup_roots);

  std::vector<double> coverage, type_sum, type_max, train;
  for (const int root : pass_roots) {
    double layers = 0.0;
    double sum = 0.0;
    double max = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const int id = static_cast<int>(i);
      if (id == root || root_of[i] != root) continue;
      if (spans[i].detail) {
        sum += SpanTrace::Seconds(spans[i]);
        max = std::max(max, SpanTrace::Seconds(spans[i]));
      } else {
        layers += SpanTrace::SelfSeconds(spans, id);
      }
      if (spans[i].name == "rl.train") {
        train.push_back(SpanTrace::Seconds(spans[i]));
      }
    }
    coverage.push_back(
        layers / SpanTrace::Seconds(spans[static_cast<std::size_t>(root)]));
    type_sum.push_back(sum);
    type_max.push_back(max);
  }
  out.Set("obs.self_time_coverage", Median(coverage));
  if (!train.empty()) {
    out.Set("rl.type_s_sum", Median(type_sum));
    out.Set("rl.type_s_max", Median(type_max));
    out.Set("pool.efficiency",
            Median(type_sum) / (pool_threads * Median(train)));
  }
}

int Run(const Options& options) {
  // Fixed malloc thresholds turn off glibc's dynamic mmap threshold, whose
  // state depends on the order of earlier frees: with it, the VmHWM of
  // identical passes varied by up to 15%. With a fixed threshold, large
  // blocks map and unmap with their lifetime and the peak tracks the live set.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  // The calling thread takes part in ParallelFor, so nproc - 1 workers keep
  // the process at nproc running threads.
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  ThreadPool pool(std::max(1, hardware - 1));
  const int pool_threads = pool.num_threads() + 1;
  const std::unique_ptr<Workload> workload = MakeWorkload(options, pool);
  if (workload == nullptr) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const bool traced_run = !options.trace_path.empty();
  std::unique_ptr<SpanTrace> trace;
  if (traced_run) {
    trace = std::make_unique<SpanTrace>(
        StrFormat("%s-s%llu-%d", options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed),
                  static_cast<int>(getpid())));
  }
  std::vector<std::string> problems;
  // Host probes bracket every measured step; the step's wall time is
  // rescaled by the reference probe time over the two probes' mean.
  std::vector<double> probes;
  const bool parallel = workload->UsesPool();
  const double reference =
      parallel ? kReferenceParallelProbeSeconds : kReferenceProbeSeconds;
  const auto probe = [&] {
    probes.push_back(ProbeSeconds(parallel ? &pool : nullptr, pool_threads));
    return probes.back();
  };

  // Set-up, repeated; the last repetition's inputs are used.
  std::vector<double> setup_seconds, setup_wall;
  std::vector<int> setup_roots;
  std::string input_checksum;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double before = probe();
    std::string checksum;
    {
      const ScopedSpan root(trace.get(), "setup", kNoSpan);
      const Clock::time_point start = Clock::now();
      checksum = workload->Setup(trace.get(), root.id());
      setup_wall.push_back(SecondsSince(start));
      setup_roots.push_back(root.id());
    }
    setup_seconds.push_back(setup_wall.back() * 2.0 * reference /
                            (before + probe()));
    if (rep > 0 && checksum != input_checksum) {
      problems.push_back("set-up produced different inputs on repetition");
    }
    input_checksum = checksum;
  }
  std::printf("workload %s, seed %llu, size %s: %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.smoke ? "smoke" : "full", workload->Describe().c_str());
  std::printf("thread pool: %d threads including the caller; inputs %s\n",
              pool_threads, input_checksum.c_str());

  // Timed section. Every input gets at least one pass; a traced run gives
  // each input an untraced pass and then a traced one, whose checksums must
  // agree.
  const int inputs = workload->Inputs();
  const int passes_per_input = traced_run ? 2 : 1;
  const int min_passes = std::max(traced_run ? 4 : 3, inputs * passes_per_input);
  std::vector<double> plain_seconds, traced_seconds, plain_wall;
  // Untraced passes by input: seconds, events per second, peak RSS.
  std::vector<std::vector<double>> run_s(static_cast<std::size_t>(inputs));
  std::vector<std::vector<double>> rate(run_s.size()), rss_mb(run_s.size());
  std::vector<int> pass_roots;
  std::vector<std::string> checksums(static_cast<std::size_t>(inputs));
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const Clock::time_point begin = Clock::now();
  for (int pass = 0;
       pass < min_passes || SecondsSince(begin) < options.seconds; ++pass) {
    const bool traced_pass = traced_run && pass % 2 == 1;
    const int input = pass / passes_per_input % inputs;
    SpanTrace* pass_trace = traced_pass ? trace.get() : nullptr;
    double seconds = 0.0;
    const double before = probe();
    ResetPeakRss();
    {
      const ScopedSpan root(pass_trace, "run", kNoSpan);
      const Clock::time_point start = Clock::now();
      workload->RunPass(pass_trace, root.id(), input);
      seconds = SecondsSince(start);
      if (traced_pass) pass_roots.push_back(root.id());
    }
    const double pass_rss_mb = PeakRssMb();
    const double scale = 2.0 * reference / (before + probe());
    if (traced_pass) workload->AfterTracedPass();
    const PassOutput out = workload->Check();
    (traced_pass ? traced_seconds : plain_seconds).push_back(seconds * scale);
    if (!traced_pass) {
      const auto i = static_cast<std::size_t>(input);
      plain_wall.push_back(seconds);
      run_s[i].push_back(seconds * scale);
      rate[i].push_back(static_cast<double>(out.events) / (seconds * scale));
      rss_mb[i].push_back(pass_rss_mb);
    }
    std::string& expected = checksums[static_cast<std::size_t>(input)];
    if (!expected.empty() && out.checksum != expected) {
      problems.push_back(StrFormat("pass %d checksum %s differs from %s",
                                   pass, out.checksum.c_str(),
                                   expected.c_str()));
    }
    if (!out.outputs_ok) {
      problems.push_back(StrFormat("pass %d failed its output checks", pass));
    }
    expected = out.checksum;
    attempted += out.attempted;
    failed += out.failed;
  }
  // The run's checksum covers every input's outputs, in input order.
  std::string checksum = checksums.front();
  if (inputs > 1) {
    Fnv fnv;
    for (const std::string& c : checksums) fnv.Fold(c);
    checksum = fnv.Hex();
  }
  workload->PrintSummary();
  std::printf("host probe: median %.4f s; wall medians: set-up %.4f s, "
              "pass %.4f s\n",
              Median(probes), Median(setup_wall), Median(plain_wall));

  std::string metrics_json;
  if (!traced_run) {
    Metrics metrics(kEndToEnd);
    metrics.Set("setup_s", Median(setup_seconds));
    metrics.Set("run_s", InputMean(run_s));
    metrics.Set("events_per_s", InputMean(rate));
    metrics.Set("peak_rss_mb", InputMean(rss_mb));
    std::printf("%zu passes, checksum %s\n", plain_seconds.size(),
                checksum.c_str());
    metrics.Print();
    metrics_json = metrics.ToJson();
  } else {
    Metrics metrics(kPerLayer);
    SpanMetrics(trace->Spans(), pass_roots, setup_roots, pool_threads,
                metrics);
    workload->LayerMetrics(metrics);
    if (metrics.Get("rl.type_s_sum") > 0.0) {
      metrics.Set("rl.tree_scan_s",  // derived, not measured
                  metrics.Get("rl.type_s_sum") - metrics.Get("rl.sweep_s"));
    }
    metrics.Set("obs.trace_overhead_frac",
                Median(traced_seconds) / Median(plain_seconds) - 1.0);
    metrics.Set("host.probe_s", Median(probes));
    std::printf("%zu untraced + %zu traced passes, checksum %s\n",
                plain_seconds.size(), traced_seconds.size(),
                checksum.c_str());
    metrics.Print();
    metrics_json = metrics.ToJson();
    if (!trace->WriteChromeTrace(options.trace_path)) {
      problems.push_back("cannot write " + options.trace_path);
    }
  }
  for (const std::string& problem : problems) {
    std::printf("FAILED: %s\n", problem.c_str());
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
      "\"mode\": \"%s\", \"passes\": %zu, \"checksum\": \"%s\", "
      "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"probe_s\": %.17g, \"wall_setup_s\": %.17g, \"wall_run_s\": %.17g, "
      "\"metrics\": %s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.smoke ? "smoke" : "full", traced_run ? "trace" : "plain",
      plain_seconds.size() + traced_seconds.size(), checksum.c_str(),
      problems.empty() ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), Median(probes), Median(setup_wall),
      Median(plain_wall), metrics_json.c_str());
  return 0;
}

}  // namespace
}  // namespace aer::e2e

int main(int argc, char** argv) {
  const std::optional<aer::e2e::Options> options =
      aer::e2e::ParseOptions(argc, argv);
  if (!options) {
    std::fputs(aer::e2e::kUsage, stderr);
    return 2;
  }
  return aer::e2e::Run(*options);
}
