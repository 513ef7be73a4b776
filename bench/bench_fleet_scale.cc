// Fleet-scale bench (not a paper figure): throughput and footprint of the
// sharded timing-wheel engine (docs/FLEET_SIM.md) on a million-machine
// fleet.
//
// Two arms — a 10k-machine reference and the 10^6-machine scale run — both
// on the sharded engine with the shard count pinned (so the aer_fleet_*
// registry mirror is reproducible across hosts). The full RecoveryLog of
// every arm is folded into the output checksum entry by entry: the baseline
// compare catches any numeric drift in the engine, not just in the summary
// counters. Machine-events/sec and peak RSS are the wall-clock metrics;
// only the former enters the baseline (as a throughput gate), RSS is
// informational. The shard merge's wall time (profile scope
// fleet_run/fleet_merge, summed over the arms) is recorded as
// fleet_merge_ms for the perf trend, outside the checksum.
//
// AER_SCALE (or --smoke, which forces the small sizing) picks the simulated
// duration; the fleet sizes never shrink — the smoke leg still runs the
// million-machine arm, just over fewer simulated days.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.h"
#include "bench_json.h"
#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/profiler.h"
#include "fleet/fleet_sim.h"
#include "obs/metrics.h"

namespace aer::bench {
namespace {

struct Arm {
  std::string name;
  int machines = 0;
  SimTime duration = 0;
};

// Process peak RSS in MiB (0 where getrusage is unavailable).
std::int64_t PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / (1024 * 1024);  // bytes
#else
  return usage.ru_maxrss / 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

// Wall time of the shard merge since the last ProfileRegistry::Reset().
double FleetMergeMs() {
  for (const ProfileEntry& entry : ProfileRegistry::Global().Snapshot()) {
    if (entry.path == "fleet_run/fleet_merge") {
      return static_cast<double>(entry.total_ns) / 1e6;
    }
  }
  return 0.0;
}

// Folds every log entry into the bench checksum as a fixed-width binary
// record — field by field, no padding bytes, so the digest is a pure
// function of the entry sequence.
void FoldLog(BenchRecord& record, const RecoveryLog& log) {
  for (const LogEntry& entry : log.entries()) {
    const std::uint64_t packed[3] = {
        static_cast<std::uint64_t>(entry.time),
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(entry.machine))
         << 32) |
            static_cast<std::uint32_t>(entry.kind),
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(entry.symptom))
         << 32) |
            static_cast<std::uint32_t>(entry.action),
    };
    record.FoldChecksum(std::string_view(
        reinterpret_cast<const char*>(packed), sizeof(packed)));
  }
}

void Run(bool smoke) {
  Header("fleet_scale", "fleet simulator (not a paper figure)",
         "Machine-events/sec and peak RSS of the sharded timing-wheel "
         "engine on a million-machine fleet.");

  const char* scale = std::getenv("AER_SCALE");
  const bool small =
      smoke || (scale != nullptr && std::strcmp(scale, "small") == 0);
  const bool large = !small && scale != nullptr &&
                     std::strcmp(scale, "large") == 0;
  // Simulated days per arm; fleet sizes are fixed (see file comment).
  const SimTime ref_days = small ? 10 : large ? 180 : 60;
  const SimTime scale_days = small ? 2 : large ? 30 : 8;
  const std::vector<Arm> arms = {
      {"10k machines", 10000, ref_days * kDay},
      {"1M machines", 1000000, scale_days * kDay},
  };

  const FaultCatalog catalog = MakeDefaultCatalog();
  obs::MetricsRegistry registry;
  BenchRecord& record = BenchRecord::Instance();

  std::vector<std::string> labels;
  ChartSeries completed{"processes completed", {}};
  ChartSeries skipped{"arrivals skipped", {}};
  ChartSeries downtime{"downtime (days)", {}};
  ChartSeries log_entries{"log entries", {}};
  double scale_events_per_sec = 0.0;
  double total_wall_ms = 0.0;
  double total_merge_ms = 0.0;
  for (const Arm& arm : arms) {
    fleet::FleetSimConfig config;
    config.sim.num_machines = arm.machines;
    config.sim.duration = arm.duration;
    config.sim.machine_mtbf_days = 10.0;
    config.sim.machine_speed_spread = 0.2;
    config.sim.diurnal_amplitude = 0.3;
    config.sim.seed = 4242;
    config.num_shards = 64;  // pinned: keeps aer_fleet_shards reproducible

    fleet::FleetSimulator sim(config, catalog);
    sim.SetMetrics(&registry);
    const std::int64_t events_before =
        registry.GetCounter("aer_fleet_events_total").value();

    UserDefinedPolicy policy;
    ProfileRegistry::Global().Reset();
    const auto start = std::chrono::steady_clock::now();
    const SimulationResult result = sim.Run(policy, &GetPool());
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    total_wall_ms += wall_ms;
    const double merge_ms = FleetMergeMs();
    total_merge_ms += merge_ms;
    const std::int64_t events =
        registry.GetCounter("aer_fleet_events_total").value() - events_before;
    const double events_per_sec =
        wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms / 1000.0)
                      : 0.0;
    if (arm.machines == 1000000) scale_events_per_sec = events_per_sec;

    FoldLog(record, result.log);
    labels.push_back(arm.name);
    completed.values.push_back(
        static_cast<double>(result.processes_completed));
    skipped.values.push_back(
        static_cast<double>(result.fault_arrivals_skipped));
    downtime.values.push_back(static_cast<double>(result.total_downtime) /
                              kDay);
    log_entries.values.push_back(static_cast<double>(result.log.size()));
    std::printf("  %-13s %lld days: %lld events in %.0f ms "
                "(%.2fM events/sec, merge %.1f ms), %lld processes, "
                "%zu log entries\n",
                arm.name.c_str(),
                static_cast<long long>(arm.duration / kDay),
                static_cast<long long>(events), wall_ms,
                events_per_sec / 1e6, merge_ms,
                static_cast<long long>(result.processes_completed),
                result.log.size());
  }
  Report("bench_fleet_scale", "fleet", labels,
         {completed, skipped, downtime, log_entries});

  const std::int64_t rss_mb = PeakRssMb();
  record.RecordRegistrySnapshot(registry);
  record.SetMetric("events_per_sec", scale_events_per_sec);
  record.SetMetric("fleet_wall_ms", total_wall_ms);
  record.SetMetric("fleet_merge_ms", total_merge_ms);
  record.SetIntMetric("peak_rss_mb", rss_mb);

  std::printf("\n1M-machine arm: %.2fM machine-events/sec; peak RSS "
              "%lld MiB.\n",
              scale_events_per_sec / 1e6, static_cast<long long>(rss_mb));
  Footer();
}

}  // namespace
}  // namespace aer::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  aer::bench::Run(smoke);
  return 0;
}
