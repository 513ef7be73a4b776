// Publishes training telemetry into a MetricsRegistry.
//
// The per-type TypeTelemetry shards (collected by QLearningTrainer /
// SelectionTreeTrainer when TrainerConfig::collect_telemetry is set) are
// folded in the order they appear in `per_type` — the catalog order
// TrainAll() returns with or without a pool — so the published
// aer_training_* metrics are bit-identical for any thread count.
//
// Throughput (episodes/sec) is wall-clock-derived and therefore registered
// as a *volatile* gauge: deterministic snapshots exclude it
// (docs/OBSERVABILITY.md).
#ifndef AER_RL_TELEMETRY_H_
#define AER_RL_TELEMETRY_H_

#include <vector>

#include "obs/metrics.h"
#include "rl/qlearning.h"

namespace aer {

// Folds the per-type results into the aer_training_* metrics:
//   counters: aer_training_episodes_total, aer_training_q_updates_total
//   gauges:   aer_training_types, aer_training_types_converged
//   stats:    aer_training_temperature, aer_training_max_q_delta,
//             aer_training_visit_coverage, aer_training_sweeps
// Stats merge the per-type RunningStat shards in `per_type` order.
// Equivalent to PublishTypeTelemetry over the vector followed by
// PublishTrainingSummary — callers that want a TimeSeriesRecorder to see
// the counters grow between types use those two pieces directly.
void PublishTrainingTelemetry(obs::MetricsRegistry& metrics,
                              const std::vector<TypeTrainingResult>& per_type);

// Folds one type's counters and stat shards (the registry ends up
// byte-identical to a single full-vector PublishTrainingTelemetry call when
// invoked in `per_type` order). Leaves the two summary gauges alone — they
// summarize the whole vector, so incremental callers finish with
// PublishTrainingSummary. Returns false (and publishes nothing) for types
// with no training data; all metric names are still registered so the
// catalog is stable either way.
bool PublishTypeTelemetry(obs::MetricsRegistry& metrics,
                          const TypeTrainingResult& result);

// Sets the aer_training_types / aer_training_types_converged summary gauges
// from the full per-type vector — the closing step of an incremental
// PublishTypeTelemetry loop.
void PublishTrainingSummary(obs::MetricsRegistry& metrics,
                            const std::vector<TypeTrainingResult>& per_type);

// Sets the volatile aer_training_episodes_per_sec gauge. Kept separate from
// PublishTrainingTelemetry because callers that need byte-identical
// snapshots (determinism tests, golden CLI output) skip this call entirely.
void PublishTrainingThroughput(obs::MetricsRegistry& metrics,
                               double episodes_per_sec);

}  // namespace aer

#endif  // AER_RL_TELEMETRY_H_
