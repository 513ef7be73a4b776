#include "common/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aer {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.Add(42.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MatchesDirectComputation) {
  const std::vector<double> xs = {3.0, 1.5, -2.0, 8.25, 0.0, 4.5};
  RunningStat s;
  double sum = 0.0;
  for (double x : xs) {
    s.Add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.25);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(RunningStatTest, MergeEqualsSequential) {
  Rng rng(1);
  RunningStat all;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 20 - 7;
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmptySides) {
  RunningStat a;
  RunningStat b;
  b.Add(5.0);
  b.Add(7.0);
  a.Merge(b);  // empty.Merge(full)
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  RunningStat c;
  a.Merge(c);  // full.Merge(empty)
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
}

// Regression for the naive `sum_ += x` accumulator: adding many tiny values
// to one huge value lost every low-order bit, so sum() drifted from the true
// total by the full contribution of the tail. Kahan compensation keeps the
// running sum exact to one final rounding.
TEST(RunningStatTest, KahanSumSurvivesMagnitudeSpread) {
  RunningStat s;
  s.Add(1e16);
  for (int i = 0; i < 10000; ++i) s.Add(1.0);
  // Naive summation returns exactly 1e16 here (each +1.0 is below the ulp
  // of 1e16, i.e. entirely absorbed); the compensated sum keeps the 1e4.
  EXPECT_DOUBLE_EQ(s.sum(), 1e16 + 10000.0);
}

TEST(RunningStatTest, MergePreservesCompensatedSum) {
  RunningStat left;
  RunningStat right;
  left.Add(1e16);
  for (int i = 0; i < 5000; ++i) left.Add(1.0);
  for (int i = 0; i < 5000; ++i) right.Add(1.0);
  left.Merge(right);
  EXPECT_EQ(left.count(), 10001);
  EXPECT_DOUBLE_EQ(left.sum(), 1e16 + 10000.0);
}

TEST(LogHistogramTest, BucketBoundaries) {
  LogHistogram h(10.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 10.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(2), 100.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(3), 1000.0);
}

TEST(LogHistogramTest, CountsLandInRightBuckets) {
  LogHistogram h(10.0, 10.0, 3);
  h.Add(5.0);      // [0, 10)
  h.Add(15.0);     // [10, 100)
  h.Add(99.0);     // [10, 100)
  h.Add(100.0);    // [100, 1000)
  h.Add(1e9);      // overflow
  EXPECT_EQ(h.total_count(), 5);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 2);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.bucket(3), 1);
}

TEST(LogHistogramTest, QuantileOrderingAndBounds) {
  LogHistogram h(1.0, 2.0, 20);
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    h.Add(rng.NextExponential(100.0));
  }
  const double q50 = h.ApproxQuantile(0.5);
  const double q90 = h.ApproxQuantile(0.9);
  const double q99 = h.ApproxQuantile(0.99);
  EXPECT_LT(q50, q90);
  EXPECT_LT(q90, q99);
  // Exponential(100): median ~69, p90 ~230. Buckets are coarse (2x) so just
  // sanity-band the results.
  EXPECT_GT(q50, 30.0);
  EXPECT_LT(q50, 150.0);
  EXPECT_GT(q90, 120.0);
  EXPECT_LT(q90, 500.0);
}

TEST(LogHistogramTest, EmptyQuantileIsZero) {
  LogHistogram h(1.0, 2.0, 5);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0.0);
  EXPECT_EQ(h.ApproxQuantile(0.0), 0.0);
  EXPECT_EQ(h.ApproxQuantile(1.0), 0.0);
}

// Pins the documented edge behavior (common/stats.h): q=0 -> lower edge of
// the first non-empty bucket, q=1 -> upper edge of the last non-empty one.
TEST(LogHistogramTest, QuantileEdgesPinned) {
  LogHistogram h(10.0, 10.0, 3);
  h.Add(15.0);   // [10, 100)
  h.Add(20.0);   // [10, 100)
  h.Add(500.0);  // [100, 1000)
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 1000.0);
}

// Samples past the last finite bound interpolate inside the synthetic
// overflow range [lower, lower*growth).
TEST(LogHistogramTest, QuantileAllOverflow) {
  LogHistogram h(10.0, 10.0, 2);  // [0,10), [10,100), overflow [100, inf)
  h.Add(1e6);
  h.Add(1e7);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 550.0);   // 100 + 0.5 * (1000-100)
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 1000.0);  // 100 * growth
}

TEST(LogHistogramTest, MergeAddsBucketwise) {
  LogHistogram a(10.0, 10.0, 3);
  LogHistogram b(10.0, 10.0, 3);
  a.Add(5.0);
  a.Add(50.0);
  b.Add(50.0);
  b.Add(1e9);  // overflow
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 4);
  EXPECT_EQ(a.bucket(0), 1);
  EXPECT_EQ(a.bucket(1), 2);
  EXPECT_EQ(a.bucket(3), 1);
}

TEST(LogHistogramTest, ToStringListsNonEmptyBuckets) {
  LogHistogram h(10.0, 10.0, 3);
  h.Add(50.0);
  const std::string s = h.ToString();
  EXPECT_NE(s.find("[10, 100): 1"), std::string::npos);
}

}  // namespace
}  // namespace aer
