// The workload parameters and output types of the cluster simulation.
//
// The simulated cluster is the substitute for the paper's production
// environment: thousands of machines, Poisson fault arrivals drawn from the
// fault catalog, symptom emission, fault detection after a monitoring
// delay, and a recovery loop driven by a pluggable RecoveryPolicy. Every
// observable event is appended to a RecoveryLog in the paper's <time,
// machine, description> format; the ground truth (which fault actually
// occurred) is returned separately and is used only by tests and
// calibration, never by the learning pipeline.
//
// The engine that runs these configs is fleet::FleetSimulator
// (fleet/fleet_sim.h, docs/FLEET_SIM.md). It enforces the paper's process
// cap: the N-th repair action of a process is always manual repair (RMA),
// which ends the process.
#ifndef AER_CLUSTER_SIM_TYPES_H_
#define AER_CLUSTER_SIM_TYPES_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "log/log_entry.h"
#include "log/recovery_log.h"

namespace aer {

struct ClusterSimConfig {
  int num_machines = 2000;
  // Faults stop arriving after this horizon; open processes drain to
  // completion so the log contains whole processes.
  SimTime duration = 180 * kDay;
  // Per-machine mean time between faults.
  double machine_mtbf_days = 20.0;

  // Monitoring/detection latency from first symptom to first action
  // (log-normal).
  double mean_detection_delay_s = 300.0;
  double detection_delay_sigma = 0.5;

  // Decision latency between observing a failed action and starting the
  // next one (uniform seconds); shows up in per-action log costs as
  // observation overhead, which the paper notes is "not that negligible".
  SimTime min_decision_gap_s = 60;
  SimTime max_decision_gap_s = 300;

  // The paper's N: a process is ended by manual repair at this many actions.
  int max_actions_per_process = 20;

  // Probability that a process also emits the primary symptom of an
  // unrelated fault (a true concurrent error). Off by default: even a few
  // such processes destroy the polluted fault's symptom cluster at high
  // minp, which is unrealistic for the paper's data; the catalog's generic
  // symptoms model the noisy ~3% instead. Enabled by the noise-ablation
  // bench and by robustness tests.
  double cross_fault_noise_probability = 0.0;

  // Probability of re-emitting a symptom after each failed repair action
  // (Table 1 shows symptoms between actions).
  double symptom_reemit_probability = 0.7;

  // Machine heterogeneity: each machine gets a repair-speed factor drawn
  // uniformly from [1 - spread, 1 + spread] that scales all its action
  // durations (old SKUs reimage slower). 0 = homogeneous fleet (default);
  // the robustness bench raises it to stress the per-type cost averages.
  double machine_speed_spread = 0.0;

  // Arrival-rate seasonality: the fleet fault rate is modulated by
  //   1 + diurnal_amplitude * sin(2π t / day),
  // approximating the load-correlated fault pattern of a production
  // cluster. 0 (default) = homogeneous Poisson. Amplitude must be < 1.
  // Implemented by thinning, so the *mean* rate is unchanged.
  double diurnal_amplitude = 0.0;

  std::uint64_t seed = 42;
};

// Ground truth for one completed recovery process.
struct ProcessGroundTruth {
  MachineId machine = 0;
  SimTime start = 0;  // primary-symptom time == process start
  SimTime end = 0;    // Success time
  int fault_index = -1;
  // Process emitted symptoms outside its fault's own set (generic machine
  // noise or a concurrent unrelated fault) — the mining stage should filter
  // most of these.
  bool noisy = false;
};

struct SimulationResult {
  RecoveryLog log;
  // Sorted by (start, machine): the same order SegmentIntoProcesses yields,
  // so ground_truth[i] describes processes[i].
  std::vector<ProcessGroundTruth> ground_truth;
  std::int64_t fault_arrivals_skipped = 0;  // fault hit a machine already down
  std::int64_t processes_completed = 0;
  SimTime total_downtime = 0;
};

}  // namespace aer

#endif  // AER_CLUSTER_SIM_TYPES_H_
