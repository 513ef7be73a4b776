// Equivalence suite for the fleet simulator (docs/FLEET_SIM.md):
//
//  1. FleetSimulator::Run reproduces pinned checksums — same log
//     serialization, same entries, same SimulationResult fields — across
//     seeds × fleet sizes × policies, including the heterogeneity / diurnal
//     / cross-fault-noise paths.
//  2. Run is byte-identical to itself for any thread count and any shard
//     count.
//
// Together these are the draw-order proof and the determinism proof the
// parallel engine rests on.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/thread_pool.h"
#include "core/policy_generator.h"
#include "fleet/fleet_sim.h"
#include "rl/policy.h"
#include "sim_checksum.h"

namespace aer::fleet {
namespace {

std::string Serialize(const RecoveryLog& log) {
  std::ostringstream os;
  log.Write(os);
  return os.str();
}

void ExpectResultsIdentical(const SimulationResult& a,
                            const SimulationResult& b) {
  // Byte-level: the paper-format serialization (resolves symptom ids
  // through each log's own intern table).
  ASSERT_EQ(Serialize(a.log), Serialize(b.log));
  // Entry-level: ids themselves must match too (same intern order).
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_EQ(a.log.entries()[i], b.log.entries()[i]) << "entry " << i;
  }
  ASSERT_EQ(a.ground_truth.size(), b.ground_truth.size());
  for (std::size_t i = 0; i < a.ground_truth.size(); ++i) {
    const ProcessGroundTruth& ga = a.ground_truth[i];
    const ProcessGroundTruth& gb = b.ground_truth[i];
    ASSERT_EQ(ga.machine, gb.machine) << "ground truth " << i;
    ASSERT_EQ(ga.start, gb.start) << "ground truth " << i;
    ASSERT_EQ(ga.end, gb.end) << "ground truth " << i;
    ASSERT_EQ(ga.fault_index, gb.fault_index) << "ground truth " << i;
    ASSERT_EQ(ga.noisy, gb.noisy) << "ground truth " << i;
  }
  EXPECT_EQ(a.fault_arrivals_skipped, b.fault_arrivals_skipped);
  EXPECT_EQ(a.processes_completed, b.processes_completed);
  EXPECT_EQ(a.total_downtime, b.total_downtime);
}

// Fleet size → duration that keeps each run at a few hundred processes so
// the full matrix stays fast under the sanitizer legs.
SimTime DurationFor(int num_machines) {
  if (num_machines <= 1) return 180 * kDay;
  if (num_machines <= 7) return 90 * kDay;
  if (num_machines <= 100) return 30 * kDay;
  return 4 * kDay;
}

ClusterSimConfig MatrixConfig(std::uint64_t seed, int num_machines) {
  ClusterSimConfig config;
  config.num_machines = num_machines;
  config.duration = DurationFor(num_machines);
  config.machine_mtbf_days = 10.0;
  config.seed = seed;
  // Odd seeds exercise the optional paths: machine heterogeneity, diurnal
  // thinning, and cross-fault noise all consume extra draws, so draw-order
  // equivalence must hold with them on as well.
  if (seed % 2 == 1) {
    config.machine_speed_spread = 0.25;
    config.diurnal_amplitude = 0.4;
    config.cross_fault_noise_probability = 0.05;
  }
  return config;
}

// A trained Q policy for the second policy arm, generated once from a
// simulated log (the pipeline's normal path).
const TrainedPolicy& TrainedQPolicy() {
  static const TrainedPolicy* policy = [] {
    ClusterSimConfig config;
    config.num_machines = 200;
    config.duration = 60 * kDay;
    config.machine_mtbf_days = 10.0;
    config.seed = 301;
    UserDefinedPolicy user;
    const SimulationResult result =
        FleetSimulator(FleetSimConfig{.sim = config}, MakeDefaultCatalog())
            .Run(user);
    return new TrainedPolicy(PolicyGenerator().Generate(result.log));
  }();
  return *policy;
}

struct RunPin {
  std::uint64_t seed;
  int machines;
  bool trained;
  std::uint64_t checksum;  // ResultChecksum (fleet/sim_checksum.h)
};

// Run()'s outputs on this exact grid (MatrixConfig, TrainedQPolicy). They
// were captured while the engine still had a second, global-stream run
// mode, so they also prove that folding it down to one mode kept Run()'s
// per-machine draw and tie order.
constexpr RunPin kRunPins[] = {
    {1, 1, false, 0xdf345689f756aec9ULL},
    {1, 7, false, 0xdc02d2e3e7b5a28cULL},
    {1, 100, false, 0xa0a735ba62fa5e4dULL},
    {1, 10000, false, 0x72e3ddccc5558f2eULL},
    {2, 1, false, 0xae9b60c0b7793728ULL},
    {2, 7, false, 0x72a13c6a7b98fbacULL},
    {2, 100, false, 0x0c8597d16d5fd5e1ULL},
    {2, 10000, false, 0x033eefa1b803f7faULL},
    {3, 1, false, 0xabe8d7fe6a3725aaULL},
    {3, 7, false, 0x8bcd56c8a467c396ULL},
    {3, 100, false, 0x35ff1bc4d353f77fULL},
    {3, 10000, false, 0x384372728fb62b81ULL},
    {4, 1, false, 0xb9aef2dba710fe7fULL},
    {4, 7, false, 0xca754924ccb52c06ULL},
    {4, 100, false, 0x64ee17a44f25bf0eULL},
    {4, 10000, false, 0x926e9bde66c9b603ULL},
    {5, 1, false, 0x428b9d87230cc3a3ULL},
    {5, 7, false, 0x807bbad471b0ea79ULL},
    {5, 100, false, 0xe6f4b056e7ac5990ULL},
    {5, 10000, false, 0xf057e1dd3f3bf8bcULL},
    {1, 1, true, 0x0d429476d855304cULL},
    {1, 7, true, 0xa12a8d38fa9d0c75ULL},
    {1, 100, true, 0xb20dfa8e9c1cc3eaULL},
    {1, 10000, true, 0xa725a5b194f880adULL},
    {2, 1, true, 0x48b5c841326b3173ULL},
    {2, 7, true, 0xddf905c85fb3fcf2ULL},
    {2, 100, true, 0x8f7a2caf1a745d71ULL},
    {2, 10000, true, 0xbecce55a3b769eb5ULL},
    {3, 1, true, 0xa696e584989e68b9ULL},
    {3, 7, true, 0x41607d5964d1b179ULL},
    {3, 100, true, 0xe1bc0e09d32918dbULL},
    {3, 10000, true, 0xdb1472b9d50748f2ULL},
    {4, 1, true, 0x754fd8c3726782e5ULL},
    {4, 7, true, 0xf5015b515c5d4d33ULL},
    {4, 100, true, 0x4e58a502082c52d3ULL},
    {4, 10000, true, 0x56ab7ea1c6bfc783ULL},
    {5, 1, true, 0x11c0f538bf47a2d0ULL},
    {5, 7, true, 0xf579c890985d7062ULL},
    {5, 100, true, 0xbda98e23863ad646ULL},
    {5, 10000, true, 0xc1ff43c9775f99f2ULL},
};

class FleetEquivalenceTest : public testing::TestWithParam<bool> {};

// Seeds {1..5} × fleets {1, 7, 100, 10k} × {user policy, trained Q policy}.
TEST_P(FleetEquivalenceTest, RunMatchesPinnedChecksums) {
  const bool trained = GetParam();
  const FaultCatalog catalog = MakeDefaultCatalog();
  int cases = 0;
  for (const RunPin& pin : kRunPins) {
    if (pin.trained != trained) continue;
    ++cases;
    const FleetSimConfig config{.sim = MatrixConfig(pin.seed, pin.machines)};
    SimulationResult result;
    if (trained) {
      TrainedPolicy policy = TrainedQPolicy();
      result = FleetSimulator(config, catalog).Run(policy);
    } else {
      UserDefinedPolicy policy;
      result = FleetSimulator(config, catalog).Run(policy);
    }
    SCOPED_TRACE(testing::Message() << "seed=" << pin.seed << " machines="
                                    << pin.machines << " trained=" << trained);
    EXPECT_EQ(ResultChecksum(result), pin.checksum);
    EXPECT_GT(result.log.size(), 0u);
  }
  EXPECT_EQ(cases, 20);
}

INSTANTIATE_TEST_SUITE_P(Policies, FleetEquivalenceTest,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "TrainedQPolicy"
                                             : "UserPolicy";
                         });

ClusterSimConfig ShardedConfig() {
  ClusterSimConfig config;
  config.num_machines = 3000;
  config.duration = 10 * kDay;
  config.machine_mtbf_days = 8.0;
  config.machine_speed_spread = 0.2;
  config.diurnal_amplitude = 0.3;
  config.seed = 99;
  return config;
}

// The sharded engine's output is a pure function of the config: 1, 2 and 8
// pool threads (and no pool at all) produce byte-identical results.
TEST(FleetShardingTest, ThreadCountInvariance) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  const FleetSimConfig config{.sim = ShardedConfig(), .num_shards = 8};

  UserDefinedPolicy policy;
  const SimulationResult serial =
      FleetSimulator(config, catalog).Run(policy, nullptr);
  EXPECT_GT(serial.processes_completed, 100);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    UserDefinedPolicy p;
    const SimulationResult parallel =
        FleetSimulator(config, catalog).Run(p, &pool);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectResultsIdentical(serial, parallel);
  }
}

// Shard boundaries are not allowed to leak into the output either: the
// per-machine stream discipline makes 1, 5 and 32 shards byte-identical,
// merged on the pool or without one. The short horizon ends mid-recovery
// for many processes, so the merge also sees entries past `duration`.
TEST(FleetShardingTest, ShardCountInvariance) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  ThreadPool pool(4);

  ClusterSimConfig short_horizon = ShardedConfig();
  short_horizon.duration = 6 * kHour;
  for (const ClusterSimConfig& sim : {ShardedConfig(), short_horizon}) {
    SCOPED_TRACE(testing::Message() << "duration=" << sim.duration);
    UserDefinedPolicy policy;
    const FleetSimConfig one{.sim = sim, .num_shards = 1};
    const SimulationResult baseline =
        FleetSimulator(one, catalog).Run(policy, nullptr);
    ASSERT_FALSE(baseline.log.empty());
    EXPECT_GT(baseline.log.entries().back().time, sim.duration);
    for (const int shards : {5, 32}) {
      const FleetSimConfig config{.sim = sim, .num_shards = shards};
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        UserDefinedPolicy user;
        const SimulationResult result =
            FleetSimulator(config, catalog).Run(user, p);
        SCOPED_TRACE(testing::Message() << "shards=" << shards
                                        << " pool=" << (p != nullptr));
        ExpectResultsIdentical(baseline, result);
      }
    }
  }
}

// Thread invariance holds with the trained policy in the loop too (pure
// ChooseAction invoked concurrently from shard threads).
TEST(FleetShardingTest, TrainedPolicyThreadInvariance) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  const FleetSimConfig config{.sim = ShardedConfig(), .num_shards = 8};

  TrainedPolicy serial_policy = TrainedQPolicy();
  const SimulationResult serial =
      FleetSimulator(config, catalog).Run(serial_policy, nullptr);
  ThreadPool pool(8);
  TrainedPolicy parallel_policy = TrainedQPolicy();
  const SimulationResult parallel =
      FleetSimulator(config, catalog).Run(parallel_policy, &pool);
  ExpectResultsIdentical(serial, parallel);
}

}  // namespace
}  // namespace aer::fleet
