#include "bench_common.h"

#include <cstdio>
#include <memory>

#include "bench_json.h"
#include "common/string_util.h"
#include "mining/error_type.h"

namespace aer::bench {
namespace {

std::unique_ptr<BenchDataset> BuildDataset() {
  auto dataset = std::make_unique<BenchDataset>();
  dataset->config = TraceConfigFromEnv();
  dataset->trace = GenerateTrace(dataset->config);
  dataset->all =
      SegmentIntoProcesses(dataset->trace.result.log).processes;

  MPatternConfig mining;  // minp = 0.1, the paper's setting
  const SymptomClustering clustering(dataset->all, mining);
  dataset->clusters = clustering.clusters().size();
  dataset->clean = KeepCohesive(dataset->all, clustering);
  dataset->cohesive_fraction = static_cast<double>(dataset->clean.size()) /
                               static_cast<double>(dataset->all.size());
  return dataset;
}

}  // namespace

const BenchDataset& GetDataset() {
  static const std::unique_ptr<BenchDataset> dataset = BuildDataset();
  return *dataset;
}

ExperimentConfig DefaultExperimentConfig() {
  ExperimentConfig config;
  config.trainer.max_sweeps = 40000;
  config.use_selection_tree = true;
  return config;
}

const ExperimentRunner& GetExperimentRunner() {
  static const std::unique_ptr<ExperimentRunner> runner = [] {
    const BenchDataset& dataset = GetDataset();
    return std::make_unique<ExperimentRunner>(
        dataset.clean, dataset.trace.result.log.symptoms(),
        DefaultExperimentConfig());
  }();
  return *runner;
}

ThreadPool& GetPool() {
  static ThreadPool* pool = new ThreadPool();  // leaked: lives to exit
  return *pool;
}

const std::vector<ExperimentResult>& GetExperimentResults() {
  static const std::vector<ExperimentResult> results =
      GetExperimentRunner().RunAll(&GetPool());
  return results;
}

void Header(const std::string& id, const std::string& paper_item,
            const std::string& description) {
  BenchRecord::Instance().Begin(id);
  const BenchDataset& dataset = GetDataset();
  std::printf("================================================================\n");
  std::printf("%s — reproduces %s\n", id.c_str(), paper_item.c_str());
  std::printf("  (Zhu & Yuan, \"A Reinforcement Learning Approach to "
              "Automatic Error Recovery\", DSN 2007)\n");
  std::printf("%s\n", description.c_str());
  std::printf("dataset: %d machines, %lld days, %zu processes "
              "(%zu after noise filtering)\n",
              dataset.config.sim.num_machines,
              static_cast<long long>(dataset.config.sim.duration / kDay),
              dataset.all.size(), dataset.clean.size());
  std::printf("================================================================\n");
}

void Footer() {
  BenchRecord::Instance().Finish();
  std::printf("\n");
}

void Report(const std::string& csv_name, const std::string& x_name,
            const std::vector<std::string>& labels,
            const std::vector<ChartSeries>& series, bool log_scale) {
  // Fold the series into the bench's output checksum at full precision, so
  // BENCH_<name>.json detects numeric drift the rounded table would hide.
  BenchRecord& record = BenchRecord::Instance();
  record.FoldChecksum(csv_name);
  for (const std::string& label : labels) record.FoldChecksum(label);
  for (const ChartSeries& s : series) {
    record.FoldChecksum(s.name);
    for (const double v : s.values) {
      record.FoldChecksum(StrFormat("%.17g,", v));
    }
  }

  std::printf("\n%s\n", RenderTable(x_name, labels, series).c_str());
  std::printf("%s\n",
              (log_scale ? RenderLogBarChart(labels, series)
                         : RenderBarChart(labels, series))
                  .c_str());

  CsvWriter csv(CsvDirFromEnv(), csv_name);
  if (csv.enabled()) {
    std::vector<std::string> header = {x_name};
    for (const ChartSeries& s : series) header.push_back(s.name);
    csv.WriteRow(header);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::vector<std::string> row = {labels[i]};
      for (const ChartSeries& s : series) {
        row.push_back(StrFormat("%.6g", s.values[i]));
      }
      csv.WriteRow(row);
    }
  }
}

bool CheckClaim(bool held, const std::string& claim) {
  std::printf("claim %s: %s\n", held ? "held" : "BROKEN", claim.c_str());
  return held;
}

bool CheckSavingsClaim(const std::vector<double>& relative_costs) {
  double sum = 0.0;
  bool each_below = true;
  for (const double cost : relative_costs) {
    sum += cost;
    each_below = each_below && cost < 0.90;
  }
  const bool mean_below =
      sum < 0.90 * static_cast<double>(relative_costs.size());
  if (ScaleFromEnv() == "small") {
    return CheckClaim(mean_below,
                      "the mean relative cost over tests 1-4 is below 90%");
  }
  return CheckClaim(mean_below && each_below,
                    "the relative cost is below 90% in every test and on "
                    "average");
}

std::vector<std::string> TypeLabels(std::size_t n) {
  std::vector<std::string> labels;
  labels.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    labels.push_back(StrFormat("%2zu", i));
  }
  return labels;
}

}  // namespace aer::bench
