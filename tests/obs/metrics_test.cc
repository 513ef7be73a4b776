// MetricsRegistry unit tests: kinds, merge semantics, deterministic exports,
// and the volatile-metric exclusion that keeps snapshots seed-pure.
#include "obs/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aer::obs {
namespace {

TEST(MetricNameTest, Validation) {
  EXPECT_TRUE(IsValidMetricName("aer_recovery_processes_total"));
  EXPECT_TRUE(IsValidMetricName("x"));
  EXPECT_TRUE(IsValidMetricName("a_1_b_2"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("1abc"));
  EXPECT_FALSE(IsValidMetricName("_leading"));
  EXPECT_FALSE(IsValidMetricName("UpperCase"));
  EXPECT_FALSE(IsValidMetricName("has-dash"));
  EXPECT_FALSE(IsValidMetricName("has space"));
}

TEST(MetricsRegistryTest, CounterFindOrCreate) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("aer_test_total");
  a.Inc();
  a.Inc(4);
  EXPECT_EQ(registry.GetCounter("aer_test_total").value(), 5);
  EXPECT_EQ(&a, &registry.GetCounter("aer_test_total"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, GaugeAndStat) {
  MetricsRegistry registry;
  registry.GetGauge("aer_test_gauge").Set(2.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("aer_test_gauge").value(), 2.5);
  StatMetric& stat = registry.GetStat("aer_test_stat");
  stat.Observe(1.0);
  stat.Observe(3.0);
  EXPECT_EQ(stat.Snapshot().count(), 2);
  EXPECT_DOUBLE_EQ(stat.Snapshot().mean(), 2.0);
}

TEST(MetricsRegistryTest, HistogramObserveAndSnapshot) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("aer_test_seconds", 10.0, 10.0, 3);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(1e9);  // overflow
  const LogHistogram snapshot = h.Snapshot();
  EXPECT_EQ(snapshot.total_count(), 3);
  EXPECT_EQ(snapshot.bucket(0), 1);
  EXPECT_EQ(snapshot.bucket(1), 1);
  EXPECT_EQ(snapshot.bucket(3), 1);
}

TEST(MetricsRegistryTest, KindMismatchDies) {
  MetricsRegistry registry;
  registry.GetCounter("aer_test_total");
  EXPECT_DEATH(registry.GetGauge("aer_test_total"), "already registered");
}

TEST(MetricsRegistryTest, InvalidNameDies) {
  MetricsRegistry registry;
  EXPECT_DEATH(registry.GetCounter("Bad-Name"), "metric name");
}

TEST(MetricsRegistryTest, HistogramGeometryMismatchDies) {
  MetricsRegistry registry;
  registry.GetHistogram("aer_test_seconds", 10.0, 10.0, 3);
  EXPECT_DEATH(registry.GetHistogram("aer_test_seconds", 10.0, 2.0, 3),
               "geometry");
}

TEST(MetricsRegistryTest, ExportTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("aer_b_total").Inc(2);
  registry.GetGauge("aer_a_gauge").Set(1.5);
  const std::string text = registry.ExportText();
  // Sorted by name: the gauge (aer_a...) precedes the counter (aer_b...).
  EXPECT_EQ(text,
            "# TYPE aer_a_gauge gauge\n"
            "aer_a_gauge 1.5\n"
            "# TYPE aer_b_total counter\n"
            "aer_b_total 2\n");
}

TEST(MetricsRegistryTest, ExportTextHistogramCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("aer_test_seconds", 10.0, 10.0, 2);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(50.0);
  h.Observe(1e9);
  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("aer_test_seconds_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("aer_test_seconds_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("aer_test_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("aer_test_seconds_count 4\n"), std::string::npos);
}

TEST(MetricsRegistryTest, VolatileGaugeExcludedFromDeterministicExport) {
  MetricsRegistry registry;
  registry.GetCounter("aer_test_total").Inc();
  registry.GetGauge("aer_test_eps", /*volatile_metric=*/true).Set(123.4);
  MetricsRegistry::ExportOptions deterministic;
  deterministic.include_volatile = false;
  EXPECT_EQ(registry.ExportText(deterministic).find("aer_test_eps"),
            std::string::npos);
  EXPECT_NE(registry.ExportText().find("aer_test_eps"), std::string::npos);
  const std::string json = registry.ExportJson().ToString();
  EXPECT_NE(json.find("\"volatile\": true"), std::string::npos);
}

TEST(MetricsRegistryTest, ExportJsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("aer_test_total").Inc(7);
  registry.GetStat("aer_test_stat").Observe(2.0);
  registry.GetHistogram("aer_test_seconds", 10.0, 10.0, 2).Observe(50.0);
  const std::string json = registry.ExportJson().ToString();
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"stat\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(MetricsRegistryTest, CounterValuesSortedAndCountersOnly) {
  MetricsRegistry registry;
  registry.GetCounter("aer_b_total").Inc(2);
  registry.GetCounter("aer_a_total").Inc(1);
  registry.GetGauge("aer_gauge").Set(9.0);
  const auto values = registry.CounterValues();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "aer_a_total");
  EXPECT_EQ(values[0].second, 1);
  EXPECT_EQ(values[1].first, "aer_b_total");
  EXPECT_EQ(values[1].second, 2);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("aer_test_total");
  Histogram& histogram = registry.GetHistogram("aer_test_seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Inc();
        histogram.Observe(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.Snapshot().total_count(), kThreads * kPerThread);
}

}  // namespace
}  // namespace aer::obs
