// TSan-facing stress test: MetricsRegistry::Snapshot racing concurrent
// counter/histogram mutation. The obs label routes this binary through the
// tsan CI leg, which is where the locking discipline is actually verified.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace aer::obs {
namespace {

TEST(MetricsMergeRaceTest, SnapshotRacesConcurrentMutation) {
  MetricsRegistry registry;
  registry.GetCounter("aer_race_total");
  registry.GetHistogram("aer_race_seconds");
  std::atomic<bool> stop{false};
  std::thread mutator([&registry, &stop]() {
    while (!stop.load(std::memory_order_acquire)) {
      registry.GetCounter("aer_race_total").Inc();
      registry.GetHistogram("aer_race_seconds").Observe(120.0);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    ASSERT_EQ(snapshot.counters.size(), 1u);
    ASSERT_EQ(snapshot.histograms.size(), 1u);
    EXPECT_GE(snapshot.counters[0].value, 0);
  }
  stop.store(true, std::memory_order_release);
  mutator.join();
}

}  // namespace
}  // namespace aer::obs
