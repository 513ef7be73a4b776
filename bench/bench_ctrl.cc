// Control-plane bench (not a paper figure): election throughput and
// takeover latency of the distributed recovery control plane
// (docs/CONTROL_PLANE.md).
//
// Three arms on the deterministic sim:
//   - steady state at cluster sizes 1/3/5 (same incidents, same cures —
//     the takeover-determinism contract),
//   - leader crash mid-recovery (takeover latency = crash to the
//     successor's first dispatch, in sim-time),
//   - symmetric partition isolating the leader.
// Sim-time outcomes (cures, end times, takeover latency) go through
// Report() into the output checksum; the registry snapshot mirrors every
// aer_ctrl_*/aer_inject_* counter into the baseline. Elections/sec is the
// one wall-clock metric and stays out of the baseline by design.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "cluster/user_policy.h"
#include "ctrl/harness.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_dag.h"

namespace aer::bench {
namespace {

ctrl::ControlHarnessConfig FastConfig(int cluster_size) {
  ctrl::ControlHarnessConfig config;
  config.cluster_size = cluster_size;
  config.tick_interval = 5;
  config.net_latency = 1;
  config.reemit_interval = 60;
  config.action_duration = {2, 5, 10, 20};
  config.coordinator.lease.lease_duration = 30;
  config.coordinator.membership.suspect_after = 15;
  config.coordinator.membership.evict_after = 60;
  return config;
}

std::vector<ctrl::ControlIncident> Incidents() {
  return {
      {20, 1, "Watchdog", 0},
      {35, 2, "NoHeartbeat", 2},
      {40, 3, "Watchdog", 1},
      {220, 4, "Watchdog", 1},
      {400, 5, "NoHeartbeat", 3},
  };
}

ctrl::ControlHarnessResult RunOnce(int cluster_size, NetFaultScript script,
                                   obs::MetricsRegistry* registry,
                                   obs::TraceCollector* traces = nullptr) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig manager_config;
  manager_config.action_timeout = 120;
  ctrl::ControlPlaneHarness harness(policy, manager_config,
                                    FastConfig(cluster_size),
                                    std::move(script));
  harness.SetObservers(traces, registry);
  return harness.Run(Incidents());
}

// Sim-time from the scripted leader crash to the successor's first
// dispatch — the window in which in-flight recoveries have no owner.
SimTime TakeoverLatency(const ctrl::ControlHarnessResult& result,
                        SimTime crash_at) {
  for (const ctrl::DispatchRecord& dispatch : result.dispatch_log) {
    if (dispatch.issuer != 0) return dispatch.time - crash_at;
  }
  return -1;
}

void Run() {
  Header("ctrl", "control plane (not a paper figure)",
         "Quorum-lease elections/sec and leader-takeover latency on the "
         "deterministic control-plane sim.");

  const char* scale = std::getenv("AER_SCALE");
  const int reps = (scale != nullptr && std::string(scale) == "small")
                       ? 20
                       : 200;

  struct Arm {
    std::string name;
    int cluster_size = 3;
    NetFaultScript script;
    SimTime crash_at = -1;  // >= 0: measure takeover latency from here
  };
  std::vector<Arm> arms;
  for (int n : {1, 3, 5}) {
    arms.push_back({"steady n=" + std::to_string(n), n, {}, -1});
  }
  {
    // The crash lands while machines 2 and 3 are mid-ladder, so their
    // in-flight actions lose their issuer and the successor must adopt and
    // resume — the scenario the takeover_gap stage attributes.
    Arm takeover{"takeover n=3", 3, {}, 45};
    takeover.script.crashes.push_back({45, 0, 300});
    arms.push_back(std::move(takeover));
  }
  {
    Arm partition{"partition n=3", 3, {}, 60};
    LinkPartition cut;
    cut.from = 60;
    cut.until = 100000;  // never heals within the run
    cut.side_a = {0};
    cut.side_b = {1, 2};
    partition.script.partitions.push_back(cut);
    arms.push_back(std::move(partition));
  }

  obs::MetricsRegistry registry;
  // Causal trace of the takeover arm's observed run: the critical-path
  // attribution below turns the headline takeover latency into named stages
  // (docs/OBSERVABILITY.md "Distributed tracing").
  obs::TraceCollector takeover_traces;
  takeover_traces.SetMetrics(&registry);
  std::vector<std::string> labels;
  ChartSeries cures{"incidents cured", {}};
  ChartSeries end_time{"sim end time", {}};
  ChartSeries takeover_latency{"takeover latency (sim s)", {}};
  std::int64_t elections = 0;
  double wall_ms = 0.0;
  SimTime crash_takeover_latency = 0;
  for (const Arm& arm : arms) {
    // One observed run for the registry + determinism surfaces...
    const ctrl::ControlHarnessResult result = RunOnce(
        arm.cluster_size, arm.script, &registry,
        arm.name == "takeover n=3" ? &takeover_traces : nullptr);
    // ...then unobserved repetitions for a measurable wall time.
    const auto start = std::chrono::steady_clock::now();
    std::int64_t arm_elections = result.coordinators.elections_started;
    for (int rep = 1; rep < reps; ++rep) {
      const ctrl::ControlHarnessResult timed =
          RunOnce(arm.cluster_size, arm.script, nullptr);
      arm_elections += timed.coordinators.elections_started;
    }
    wall_ms += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    elections += arm_elections;

    const SimTime latency =
        arm.crash_at >= 0 ? TakeoverLatency(result, arm.crash_at) : 0;
    if (arm.name == "takeover n=3") crash_takeover_latency = latency;
    labels.push_back(arm.name);
    cures.values.push_back(static_cast<double>(result.cures));
    end_time.values.push_back(static_cast<double>(result.end_time));
    takeover_latency.values.push_back(static_cast<double>(latency));
    std::printf("  %-14s cures %lld/%zu, end %lld, takeover +%lld, "
                "audit %s\n",
                arm.name.c_str(), static_cast<long long>(result.cures),
                Incidents().size(), static_cast<long long>(result.end_time),
                static_cast<long long>(latency),
                result.audit.Clean() ? "clean" : "VIOLATED");
  }
  Report("bench_ctrl", "arm", labels, {cures, end_time, takeover_latency});

  const double elections_per_sec =
      wall_ms > 0.0 ? static_cast<double>(elections) / (wall_ms / 1000.0)
                    : 0.0;
  // Critical-path attribution of the takeover arm: per-stage sim-time of
  // every cure lands in the aer_trace_* histograms (and through the
  // registry snapshot, in the baseline), and the two control-plane stages
  // behind the headline takeover latency become their own trend metrics.
  const std::vector<obs::TraceRecord> takeover_records =
      takeover_traces.Snapshot();
  const std::vector<obs::CriticalPath> takeover_paths =
      obs::AnalyzeCriticalPaths(takeover_records);
  obs::PublishCriticalPathMetrics(registry, takeover_paths);
  SimTime takeover_gap = 0;
  SimTime election_wait = 0;
  for (const obs::CriticalPath& path : takeover_paths) {
    takeover_gap += path.stage_seconds[static_cast<std::size_t>(
        obs::TraceStage::kTakeoverGap)];
    election_wait += path.stage_seconds[static_cast<std::size_t>(
        obs::TraceStage::kElectionWait)];
  }

  BenchRecord& record = BenchRecord::Instance();
  record.RecordRegistrySnapshot(registry);
  record.SetMetric("elections_per_sec", elections_per_sec);
  record.SetMetric("ctrl_wall_ms", wall_ms);
  record.SetIntMetric("takeover_latency_sim_seconds",
                      crash_takeover_latency);
  record.SetIntMetric("takeover_stage_takeover_gap_sim_seconds",
                      takeover_gap);
  record.SetIntMetric("takeover_stage_election_wait_sim_seconds",
                      election_wait);

  // One loadable Chrome trace of the takeover arm rides along with the
  // BENCH_*.json records (the CI bench job uploads it). The TRACE_ prefix
  // keeps it out of run_all.py's BENCH_*.json glob.
  const char* artifact_env = std::getenv("AER_BENCH_JSON_DIR");
  const std::string artifact_dir =
      artifact_env != nullptr ? artifact_env : ".";
  if (artifact_dir != "off") {
    std::ofstream out(artifact_dir + "/TRACE_ctrl_takeover.chrome.json");
    if (out.good()) {
      out << obs::ChromeTraceJson(obs::BuildTraceDag(takeover_records),
                                  takeover_paths);
    }
  }

  std::printf("\n%d reps/arm: %.1f ms wall, %.0f elections/sec; leader "
              "takeover resumed in-flight recovery %lld sim-seconds after "
              "the crash (suspect timeout + promise expiry + one election "
              "round).\n",
              reps, wall_ms, elections_per_sec,
              static_cast<long long>(crash_takeover_latency));
  Footer();
}

}  // namespace
}  // namespace aer::bench

int main() {
  aer::bench::Run();
  return 0;
}
