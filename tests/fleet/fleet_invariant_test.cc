// Randomized invariant checks for the sharded fleet engine over generated
// fault catalogs: accounting identities that must hold for every run,
// regardless of catalog shape or policy.
//
//   1. total_downtime == Σ (ground_truth.end - ground_truth.start), and the
//      same sum recomputed from the emitted log via SegmentIntoProcesses.
//   2. ground_truth[i] is aligned with SegmentIntoProcesses(log).processes[i]
//      (same machine, same start, same end).
//   3. No machine is double-booked: per machine, process intervals are
//      disjoint and ordered.
//   4. processes_completed == ground_truth.size(), and every log is
//      well-formed (Success only closes an open process — segmentation
//      reports no orphans).
//
// Runs under the robustness label, i.e. also under the ASan+UBSan and TSan
// CI legs; the 4-thread pool makes TSan actually see the shard handoff.
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet/fleet_sim.h"
#include "log/recovery_process.h"

namespace aer::fleet {
namespace {

void CheckInvariants(const SimulationResult& result) {
  // Downtime identity against the ground truth.
  SimTime gt_downtime = 0;
  for (const ProcessGroundTruth& gt : result.ground_truth) {
    EXPECT_GE(gt.end, gt.start);
    gt_downtime += gt.end - gt.start;
  }
  EXPECT_EQ(result.total_downtime, gt_downtime);
  EXPECT_EQ(result.processes_completed,
            static_cast<std::int64_t>(result.ground_truth.size()));

  // Recompute from the log: segmentation must see exactly the same
  // processes, in the same (start, machine) order, with the same spans.
  const SegmentationResult seg = SegmentIntoProcesses(result.log);
  EXPECT_EQ(seg.incomplete, 0);
  EXPECT_EQ(seg.orphan_entries, 0);
  ASSERT_EQ(seg.processes.size(), result.ground_truth.size());
  SimTime log_downtime = 0;
  for (std::size_t i = 0; i < seg.processes.size(); ++i) {
    const RecoveryProcess& p = seg.processes[i];
    const ProcessGroundTruth& gt = result.ground_truth[i];
    ASSERT_EQ(p.machine(), gt.machine) << "process " << i;
    ASSERT_EQ(p.start_time(), gt.start) << "process " << i;
    ASSERT_EQ(p.success_time(), gt.end) << "process " << i;
    log_downtime += p.downtime();
  }
  EXPECT_EQ(log_downtime, result.total_downtime);

  // No machine double-booked: intervals per machine are ordered and
  // non-overlapping (a new process opens no earlier than the previous
  // Success; same-second reuse is legal in both engines).
  std::map<MachineId, SimTime> last_end;
  for (const RecoveryProcess& p : seg.processes) {
    const auto it = last_end.find(p.machine());
    if (it != last_end.end()) {
      EXPECT_GE(p.start_time(), it->second)
          << "machine " << p.machine() << " double-booked";
    }
    last_end[p.machine()] = p.success_time();
  }
}

// A randomized catalog configuration: fault-count, rate shape, noise and
// aux-determinism all drawn from the meta-seed.
CatalogConfig RandomCatalogConfig(Rng& rng) {
  CatalogConfig config;
  config.num_faults = 20 + rng.NextBounded(120);
  config.head_count = 10 + rng.NextBounded(config.num_faults - 10);
  config.head_mass = 0.8 + 0.19 * rng.NextDouble();
  config.rate_exponent = 1.1 + rng.NextDouble();
  config.deterministic_aux_fraction = rng.NextDouble();
  config.generic_symptom_probability = 0.02 * rng.NextDouble();
  config.num_generic_symptoms = 1 + static_cast<int>(rng.NextBounded(5));
  config.seed = rng.Next();
  return config;
}

TEST(FleetInvariantTest, RandomizedCatalogsShardedRun) {
  Rng meta(0xf1ee7);
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    const FaultCatalog catalog = MakeDefaultCatalog(RandomCatalogConfig(meta));
    ClusterSimConfig sim;
    sim.num_machines = 400 + static_cast<int>(meta.NextBounded(400));
    sim.duration = 20 * kDay;
    sim.machine_mtbf_days = 4.0 + 6.0 * meta.NextDouble();
    sim.machine_speed_spread = 0.3 * meta.NextDouble();
    sim.diurnal_amplitude = 0.5 * meta.NextDouble();
    sim.cross_fault_noise_probability = 0.05 * meta.NextDouble();
    sim.seed = meta.Next();
    const FleetSimConfig config{
        .sim = sim, .num_shards = 1 + static_cast<int>(meta.NextBounded(12))};

    UserDefinedPolicy policy;
    const SimulationResult result =
        FleetSimulator(config, catalog).Run(policy, &pool);
    SCOPED_TRACE(testing::Message() << "round " << round);
    EXPECT_GT(result.processes_completed, 0);
    CheckInvariants(result);
  }
}

}  // namespace
}  // namespace aer::fleet
