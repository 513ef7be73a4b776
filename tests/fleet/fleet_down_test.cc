// Regression coverage for whole-fleet-down handling.
//
// The serial engine's fleet-down branch skips an arrival when the healthy
// pool is empty; this suite pins the observable behavior —
// fault_arrivals_skipped — under a workload that saturates the fleet:
// arrivals far faster than repairs, so every machine spends most of its
// time down.
#include <cstdint>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/thread_pool.h"
#include "fleet/fleet_sim.h"
#include "sim_checksum.h"

namespace aer::fleet {
namespace {

// Golden outputs for SaturatedConfig() under the original heap engine,
// captured with the fleet_equivalence_test pins (same capture program, same
// ResultChecksum). Stable across platforms: aer::Rng is xoshiro with fixed
// integer paths.
constexpr std::int64_t kSeedGoldenSkipped = 1538;
constexpr std::uint64_t kSeedGoldenChecksum = 0x4ce73baac55a4336ULL;

// Two machines, a fault every ~35 simulated minutes per machine, repairs
// taking hours: the fleet is fully down for most of the run.
ClusterSimConfig SaturatedConfig() {
  ClusterSimConfig config;
  config.num_machines = 2;
  config.duration = 30 * kDay;
  config.machine_mtbf_days = 0.025;
  config.seed = 17;
  return config;
}

// The whole saturated run — log, ground truth, counters — not just the
// skip count.
TEST(FleetDownTest, CompatEngineMatchesSeedChecksum) {
  UserDefinedPolicy policy;
  const SimulationResult result =
      FleetSimulator(FleetSimConfig{.sim = SaturatedConfig()},
                     MakeDefaultCatalog())
          .RunSeedCompat(policy);
  EXPECT_EQ(ResultChecksum(result), kSeedGoldenChecksum);
  EXPECT_GT(result.processes_completed, 0);
}

TEST(FleetDownTest, CompatEngineMatchesSeedSkipCount) {
  UserDefinedPolicy policy;
  const SimulationResult result =
      FleetSimulator(FleetSimConfig{.sim = SaturatedConfig()},
                     MakeDefaultCatalog())
          .RunSeedCompat(policy);
  EXPECT_EQ(result.fault_arrivals_skipped, kSeedGoldenSkipped);
}

// The sharded engine has per-machine skip semantics (a fault on a down
// machine is lost rather than redirected), so its count is pinned
// separately — and must not depend on thread count.
TEST(FleetDownTest, ShardedEngineSkipCountThreadInvariant) {
  const FleetSimConfig config{.sim = SaturatedConfig(), .num_shards = 2};
  UserDefinedPolicy serial_policy;
  const SimulationResult serial =
      FleetSimulator(config, MakeDefaultCatalog()).Run(serial_policy);
  EXPECT_GT(serial.fault_arrivals_skipped, 0);
  EXPECT_GT(serial.processes_completed, 0);

  ThreadPool pool(2);
  UserDefinedPolicy parallel_policy;
  const SimulationResult parallel =
      FleetSimulator(config, MakeDefaultCatalog())
          .Run(parallel_policy, &pool);
  EXPECT_EQ(parallel.fault_arrivals_skipped, serial.fault_arrivals_skipped);
}

}  // namespace
}  // namespace aer::fleet
