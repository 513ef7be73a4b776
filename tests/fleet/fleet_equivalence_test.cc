// Equivalence suite for the fleet simulator (docs/FLEET_SIM.md):
//
//  1. FleetSimulator::RunSeedCompat reproduces the pinned outputs of the
//     original heap engine — same log serialization, same entries, same
//     SimulationResult fields — across seeds × fleet sizes × policies,
//     including the heterogeneity / diurnal / cross-fault-noise paths.
//  2. FleetSimulator::Run (sharded) is byte-identical to itself for any
//     thread count and any shard count.
//
// Together these are the draw-order proof for the serial engine and the
// determinism proof the parallel engine rests on.
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
// compat-engine log (the pipeline's normal path).
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
            .RunSeedCompat(user);
    return new TrainedPolicy(PolicyGenerator().Generate(result.log));
  }();
  return *policy;
}

struct HeapEnginePin {
  std::uint64_t seed;
  int machines;
  bool trained;
  std::uint64_t checksum;  // ResultChecksum (fleet/sim_checksum.h)
};

// The reference outputs of the original heap engine, ClusterSimulator::Run,
// which the compat mode replaced. Captured before that engine was deleted
// by a one-off program that ran this exact grid (MatrixConfig,
// TrainedQPolicy) through ClusterSimulator::Run and printed ResultChecksum
// for each case; RunSeedCompat matched all 40 values at capture time.
constexpr HeapEnginePin kHeapEnginePins[] = {
    {1, 1, false, 0x1db66b510047326bULL},
    {1, 7, false, 0x7af1032eb07c209dULL},
    {1, 100, false, 0x8148020f5e64777cULL},
    {1, 10000, false, 0x380462ecc299cbfaULL},
    {2, 1, false, 0x5cd16d5b694c645eULL},
    {2, 7, false, 0x1563568e713f73b2ULL},
    {2, 100, false, 0xea3047836feceae7ULL},
    {2, 10000, false, 0x7b4c17f91a6ab5afULL},
    {3, 1, false, 0x90af1d6068b2f9d5ULL},
    {3, 7, false, 0xe2b77c5e1612eb54ULL},
    {3, 100, false, 0xfa009d6c06e8efbeULL},
    {3, 10000, false, 0x2cd2085ba745a6c7ULL},
    {4, 1, false, 0x48f94698661c6ed9ULL},
    {4, 7, false, 0xb234f0ea57ea4a5dULL},
    {4, 100, false, 0xc57821aa1e5df665ULL},
    {4, 10000, false, 0x5088fabe1e3fe769ULL},
    {5, 1, false, 0xf083eadb36ac082bULL},
    {5, 7, false, 0x8f302108563b1be4ULL},
    {5, 100, false, 0x3b9a31c78d43458cULL},
    {5, 10000, false, 0x6b70563e2ae596daULL},
    {1, 1, true, 0xd732afd39bd27c0fULL},
    {1, 7, true, 0x90a4a2e7a78bf5c5ULL},
    {1, 100, true, 0x80495c6f17b9909eULL},
    {1, 10000, true, 0xfa04e2aca1c3f5aeULL},
    {2, 1, true, 0xdb35cef9480ba638ULL},
    {2, 7, true, 0xefb80665adcbb395ULL},
    {2, 100, true, 0x8ad47da2dc1201bcULL},
    {2, 10000, true, 0x5ed3fd3dddca9578ULL},
    {3, 1, true, 0xc28986f2d938a313ULL},
    {3, 7, true, 0x7a31d20fa3f88834ULL},
    {3, 100, true, 0x244def99123019eeULL},
    {3, 10000, true, 0x92cd7e4b408bf7b3ULL},
    {4, 1, true, 0xbb21b072f952744fULL},
    {4, 7, true, 0x0d7a20d789235889ULL},
    {4, 100, true, 0xc59adcf4114b4aa3ULL},
    {4, 10000, true, 0x2f60f4e002139187ULL},
    {5, 1, true, 0x36b3b2134fff0a7bULL},
    {5, 7, true, 0x0f37e11dd220474cULL},
    {5, 100, true, 0x7f2f9d480d739de5ULL},
    {5, 10000, true, 0xe02b314199f20b45ULL},
};

class FleetEquivalenceTest : public testing::TestWithParam<bool> {};

// Seeds {1..5} × fleets {1, 7, 100, 10k} × {user policy, trained Q policy}:
// the wheel-based compat engine reproduces the heap engine's pinned
// outputs byte for byte.
TEST_P(FleetEquivalenceTest, CompatByteIdenticalToSeedEngine) {
  const bool trained = GetParam();
  const FaultCatalog catalog = MakeDefaultCatalog();
  int cases = 0;
  for (const HeapEnginePin& pin : kHeapEnginePins) {
    if (pin.trained != trained) continue;
    ++cases;
    const FleetSimConfig config{.sim = MatrixConfig(pin.seed, pin.machines)};
    SimulationResult result;
    if (trained) {
      TrainedPolicy policy = TrainedQPolicy();
      result = FleetSimulator(config, catalog).RunSeedCompat(policy);
    } else {
      UserDefinedPolicy policy;
      result = FleetSimulator(config, catalog).RunSeedCompat(policy);
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
// per-machine stream discipline makes 1, 5 and 32 shards byte-identical.
TEST(FleetShardingTest, ShardCountInvariance) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  ThreadPool pool(4);

  UserDefinedPolicy policy;
  const FleetSimConfig one{.sim = ShardedConfig(), .num_shards = 1};
  const SimulationResult baseline =
      FleetSimulator(one, catalog).Run(policy, &pool);
  for (const int shards : {5, 32}) {
    const FleetSimConfig config{.sim = ShardedConfig(),
                                .num_shards = shards};
    UserDefinedPolicy p;
    const SimulationResult result =
        FleetSimulator(config, catalog).Run(p, &pool);
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ExpectResultsIdentical(baseline, result);
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

// The compat mode rides the sharded engine's wheel; its repeatability is
// its own guarantee (two compat runs are bit-equal), independent of the
// pinned table.
TEST(FleetShardingTest, CompatIsDeterministic) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  const FleetSimConfig config{.sim = MatrixConfig(3, 100)};
  UserDefinedPolicy a;
  UserDefinedPolicy b;
  const SimulationResult ra = FleetSimulator(config, catalog).RunSeedCompat(a);
  const SimulationResult rb = FleetSimulator(config, catalog).RunSeedCompat(b);
  ExpectResultsIdentical(ra, rb);
}

}  // namespace
}  // namespace aer::fleet
