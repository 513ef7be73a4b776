// Regression coverage for fleet-down handling.
//
// A fault arriving at a machine that is already down is skipped; this
// suite pins the observable behavior — fault_arrivals_skipped — under a
// workload that saturates the fleet: arrivals far faster than repairs, so
// every machine spends most of its time down.
#include <cstdint>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/thread_pool.h"
#include "fleet/fleet_sim.h"
#include "sim_checksum.h"

namespace aer::fleet {
namespace {

// Run()'s outputs for SaturatedConfig(), captured with the
// fleet_equivalence_test pins (same capture program, same ResultChecksum).
// Stable across platforms: aer::Rng is xoshiro with fixed integer paths.
constexpr std::int64_t kGoldenSkipped = 1633;
constexpr std::uint64_t kGoldenChecksum = 0xaf2994afc986f6d5ULL;

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
TEST(FleetDownTest, RunMatchesPinnedChecksum) {
  UserDefinedPolicy policy;
  const SimulationResult result =
      FleetSimulator(FleetSimConfig{.sim = SaturatedConfig()},
                     MakeDefaultCatalog())
          .Run(policy);
  EXPECT_EQ(ResultChecksum(result), kGoldenChecksum);
  EXPECT_GT(result.processes_completed, 0);
}

TEST(FleetDownTest, RunMatchesPinnedSkipCount) {
  UserDefinedPolicy policy;
  const SimulationResult result =
      FleetSimulator(FleetSimConfig{.sim = SaturatedConfig()},
                     MakeDefaultCatalog())
          .Run(policy);
  EXPECT_EQ(result.fault_arrivals_skipped, kGoldenSkipped);
}

// The skip count (pinned above) must not depend on thread count.
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
