// Shared scaffolding for the figure-reproduction benches: one synthetic
// dataset per process (sized by AER_SCALE), the standard noise-filtering
// front end, the tests-1-4 experiment runner, and uniform report output
// (header, numeric table, ASCII chart, optional CSV via AER_CSV_DIR).
#ifndef AER_BENCH_BENCH_COMMON_H_
#define AER_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "common/ascii_chart.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "eval/experiment.h"
#include "fleet/trace.h"
#include "mining/symptom_clusters.h"

namespace aer::bench {

struct BenchDataset {
  TraceConfig config;
  TraceDataset trace;
  // All completed processes, time-ordered.
  std::vector<RecoveryProcess> all;
  // Noise-filtered (minp = 0.1) processes, time-ordered.
  std::vector<RecoveryProcess> clean;
  std::size_t clusters = 0;
  double cohesive_fraction = 0.0;
};

// Builds (once per process) the dataset for the configured scale.
const BenchDataset& GetDataset();

// The experiment configuration shared by the figure-8..12 benches: tests
// 1-4, selection-tree policy generation.
ExperimentConfig DefaultExperimentConfig();

// Runs tests 1-4 once per process and caches the results. Training shards
// by error type over GetPool(); the results are bit-identical to a serial
// run (docs/PARALLELISM.md).
const std::vector<ExperimentResult>& GetExperimentResults();
const ExperimentRunner& GetExperimentRunner();

// The process-wide worker pool for figure regeneration, sized by
// AER_THREADS (default: hardware concurrency).
ThreadPool& GetPool();

// Report output helpers. Every bench starts with Header(), prints one or
// more Series blocks and ends with Footer(). Header() also begins the
// bench's machine-readable BENCH_<id>.json record (bench_json.h): Report()
// folds every series into its output checksum and Footer() writes the file.
void Header(const std::string& id, const std::string& paper_item,
            const std::string& description);
void Footer();

// Prints the table + bar chart and mirrors to CSV when AER_CSV_DIR is set.
void Report(const std::string& csv_name, const std::string& x_name,
            const std::vector<std::string>& labels,
            const std::vector<ChartSeries>& series, bool log_scale = false);

// Prints whether a paper claim held and returns `held`. A bench whose claim
// broke exits non-zero after Footer(), which fails run_all.py (--smoke too);
// nothing here enters the checksum.
bool CheckClaim(bool held, const std::string& claim);

// The paper's >10% savings claim (Figures 9 and 12) over the relative costs
// of tests 1-4: their mean is below 90% at every scale, and each one is at
// the default and large scales. A small trace is too short for every test
// to hold (its trained test 2 reads 90.45%).
bool CheckSavingsClaim(const std::vector<double>& relative_costs);

// "1".."40" style labels for per-error-type series (1-based like the paper).
std::vector<std::string> TypeLabels(std::size_t n);

}  // namespace aer::bench

#endif  // AER_BENCH_BENCH_COMMON_H_
