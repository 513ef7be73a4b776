// Property test: the one-mine minp sweep (SymptomClusteringSweep,
// CohesiveFractionSweep) must agree exactly with one SymptomClustering per
// minp — the same maximal clusters in the same order and bit-equal cohesive
// fractions — over randomized symptom sets, minp lists in any order with
// repeats, and the miner's support and size limits.
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mining/symptom_clusters.h"
#include "support/mpattern_oracle.h"

namespace aer {
namespace {

RecoveryProcess MakeProcess(const std::vector<SymptomId>& symptoms) {
  std::vector<SymptomEvent> events;
  SimTime t = 0;
  for (SymptomId s : symptoms) events.push_back({t++, s});
  std::vector<ActionAttempt> attempts = {
      {RepairAction::kReboot, t, 100, true}};
  return RecoveryProcess(0, std::move(events), std::move(attempts), t + 100);
}

// Processes with clustered symptoms plus noise. A symptom may repeat within
// a process; its collapsed symptom set keeps it once.
std::vector<RecoveryProcess> RandomProcesses(Rng& rng) {
  constexpr int kVocab = 10;
  std::vector<RecoveryProcess> out;
  const int n = 20 + static_cast<int>(rng.NextBounded(80));
  for (int p = 0; p < n; ++p) {
    std::vector<SymptomId> symptoms;
    if (rng.NextBool(0.8)) {
      const int base = static_cast<int>(rng.NextBounded(kVocab - 3));
      const int size = 1 + static_cast<int>(rng.NextBounded(4));
      for (int i = 0; i < size; ++i) {
        if (rng.NextBool(0.85)) symptoms.push_back(base + i);
      }
    }
    for (int i = 0; i < kVocab; ++i) {
      if (rng.NextBool(0.06)) symptoms.push_back(i);
    }
    if (symptoms.empty()) {
      symptoms.push_back(static_cast<SymptomId>(rng.NextBounded(kVocab)));
    }
    if (rng.NextBool(0.2)) symptoms.push_back(symptoms.front());
    out.push_back(MakeProcess(symptoms));
  }
  return out;
}

// Unsorted and repeated values, minp = 1.0, and a non-decimal value.
std::vector<double> RandomMinps(Rng& rng) {
  std::vector<double> minps = {1.0, 0.3, 0.1 * 3};
  const int extra = 1 + static_cast<int>(rng.NextBounded(6));
  for (int i = 0; i < extra; ++i) {
    minps.push_back(0.05 + 0.95 * rng.NextDouble());
  }
  const double repeat = minps[rng.NextBounded(minps.size())];
  minps.push_back(repeat);
  return minps;
}

void ExpectSweepMatchesOnePerMinp(
    const std::vector<RecoveryProcess>& processes,
    const std::vector<double>& minps, const MPatternConfig& config) {
  const std::vector<WeightedTransaction> sets = CollapseSymptomSets(processes);
  const std::vector<SymptomClustering> sweep =
      SymptomClusteringSweep(sets, minps, config);
  ASSERT_EQ(sweep.size(), minps.size());
  for (std::size_t i = 0; i < minps.size(); ++i) {
    MPatternConfig one = config;
    one.minp = minps[i];
    const SymptomClustering reference(processes, one);
    EXPECT_EQ(sweep[i].clusters(), reference.clusters()) << "minp " << minps[i];
    EXPECT_EQ(sweep[i].CohesiveFraction(sets),
              PerProcessCohesiveFraction(reference, processes))
        << "minp " << minps[i];
  }
}

TEST(MinpSweepPropertyTest, FractionsBitEqualOneClusteringPerMinp) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<RecoveryProcess> processes = RandomProcesses(rng);
    std::vector<double> minps = RandomMinps(rng);
    if (trial % 2 == 0) {
      minps.clear();
      for (int i = 10; i >= 1; --i) minps.push_back(0.1 * i);
    }
    const std::vector<double> fractions =
        CohesiveFractionSweep(processes, minps);
    ASSERT_EQ(fractions.size(), minps.size());
    for (std::size_t i = 0; i < minps.size(); ++i) {
      MPatternConfig one;
      one.minp = minps[i];
      const SymptomClustering reference(processes, one);
      EXPECT_EQ(fractions[i], PerProcessCohesiveFraction(reference, processes))
          << "trial " << trial << " minp " << minps[i];
    }
  }
}

// (min_support, max_pattern_size)
class MinpSweepConfigTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::size_t>> {};

TEST_P(MinpSweepConfigTest, ClustersMatchOneClusteringPerMinp) {
  MPatternConfig config;
  config.min_support = std::get<0>(GetParam());
  config.max_pattern_size = std::get<1>(GetParam());
  Rng rng(static_cast<std::uint64_t>(config.min_support * 100) +
          config.max_pattern_size);
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE(trial);
    ExpectSweepMatchesOnePerMinp(RandomProcesses(rng), RandomMinps(rng),
                                 config);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SupportAndSize, MinpSweepConfigTest,
    ::testing::Combine(::testing::Values(std::int64_t{1}, std::int64_t{3}),
                       ::testing::Values(std::size_t{2}, std::size_t{16})));

TEST(MinpSweepPropertyTest, EmptyProcessList) {
  const std::vector<double> minps = {0.5, 0.1, 1.0};
  const std::vector<RecoveryProcess> none;
  EXPECT_EQ(CohesiveFractionSweep(none, minps),
            (std::vector<double>{0.0, 0.0, 0.0}));
  ExpectSweepMatchesOnePerMinp(none, minps, MPatternConfig{});
}

TEST(MinpSweepPropertyTest, EmptyMinpList) {
  Rng rng(7);
  const std::vector<RecoveryProcess> processes = RandomProcesses(rng);
  EXPECT_TRUE(CohesiveFractionSweep(processes, {}).empty());
  EXPECT_TRUE(
      SymptomClusteringSweep(CollapseSymptomSets(processes), {}).empty());
}

}  // namespace
}  // namespace aer
