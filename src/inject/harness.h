// InjectionHarness — drives a live RecoveryManager + policy through scripted
// incidents while injecting the faults the manager claims to survive:
// dropped / duplicated / delayed symptom events, repair actions that hang
// past their deadline, and actions that report success on a still-sick
// machine. The acceptance contract (docs/ROBUSTNESS.md) is that every run at
// default severities terminates with every incident cured and no process
// left open — enforced here by a hard event budget rather than wall-clock.
//
// Two properties make termination provable rather than hopeful:
//   - RMA is immune to injection (it neither hangs nor false-succeeds and
//     always cures), and the manager's N-cap guarantees RMA is eventually
//     chosen; and
//   - a sick machine re-emits its symptom every `reemit_interval`, so a
//     dropped event or a falsely-closed process is always re-detected.
#ifndef AER_INJECT_HARNESS_H_
#define AER_INJECT_HARNESS_H_

#include <array>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recovery_manager.h"
#include "obs/timeseries.h"

namespace aer {

// One scripted failure: at `time`, `machine` falls sick with `symptom`, and
// stays sick until an action of index >= `cure_strength` runs (kTryNop=0 ..
// kRma=3; RMA always cures regardless).
struct HarnessIncident {
  SimTime time = 0;
  MachineId machine = 0;
  std::string symptom;
  int cure_strength = 0;
};

struct HarnessConfig {
  std::uint64_t seed = 20070625;

  // Live-event injection (applied to each symptom emission).
  double drop_event = 0.0;       // monitoring loses the report
  double duplicate_event = 0.0;  // monitoring delivers it twice
  double delay_event = 0.0;      // delivery slips by up to max_delay
  SimTime max_delay = 120;

  // Action-execution injection. Neither applies to RMA: manual repair is the
  // injection-immune floor of the degradation ladder.
  double hang_action = 0.0;    // action never reports a result
  double false_success = 0.0;  // non-curing action reports healthy anyway

  // A sick machine re-reports its symptom at this cadence until cured; this
  // is what turns event loss and false success into delays instead of
  // permanently lost machines.
  SimTime reemit_interval = 15 * 60;

  // PollTimeouts() cadence while processes are open (only used when the
  // manager config enables action timeouts).
  SimTime poll_interval = 10 * 60;

  // Wall-clock cost of executing each action (indexed by RepairAction).
  std::array<SimTime, kNumActions> action_duration = {60, 900, 2 * kHour,
                                                      8 * kHour};

  // Hard stop: a run that schedules more events than this is declared hung
  // (all_completed = false) instead of looping forever.
  std::size_t max_events = 1'000'000;
};

struct HarnessResult {
  // True iff the event queue drained naturally with every incident cured
  // and no recovery process left open.
  bool all_completed = false;
  std::int64_t incidents = 0;
  std::int64_t cures = 0;  // sick -> healthy transitions observed

  // What the harness actually injected.
  std::int64_t events_dropped = 0;
  std::int64_t events_duplicated = 0;
  std::int64_t events_delayed = 0;
  std::int64_t hangs_injected = 0;
  std::int64_t false_successes_injected = 0;

  // Reorder depth of delayed deliveries: how many other events ran between a
  // delayed report's emission and its (late) arrival — the depth of
  // out-of-order traffic the manager had to absorb. Mirrored per delivery
  // into the aer_inject_reorder_depth stat metric.
  std::int64_t reorder_depth_max = 0;
  std::int64_t reorder_depth_sum = 0;

  SimTime end_time = 0;
  std::size_t events_processed = 0;
  RecoveryManager::Stats manager;

  friend bool operator==(const HarnessResult&,
                         const HarnessResult&) = default;
};

class InjectionHarness {
 public:
  // `policy` must outlive the harness. `manager_config.action_timeout` must
  // be > 0 whenever `config.hang_action` is — otherwise a hung action is
  // genuinely unrecoverable and the run cannot complete.
  InjectionHarness(RecoveryPolicy& policy,
                   RecoveryManagerConfig manager_config,
                   HarnessConfig config);

  // Attaches observability sinks (either may be null; both must outlive the
  // harness) and forwards them to the wrapped RecoveryManager. Injection
  // counts mirror into aer_inject_*. With a collector attached, each
  // recovery episode becomes one causal trace in the control plane's
  // vocabulary (incident, symptom, dispatch, action_start, action_done,
  // cure, result_deliver), and every injected fault is visible in it:
  // a dropped report is a message_drop orphan, a delayed one a symptom with
  // detail "delayed", a duplicated one a symptom flagged duplicate, a hung
  // action a result_lost orphan with detail "hang", and a false success an
  // action_done with detail "false_success" (docs/OBSERVABILITY.md).
  // Trace ids are minted as ControlPlaneHarness mints them, by a pure hash
  // that draws no RNG, so attaching a collector changes no result.
  void SetObservers(obs::TraceCollector* traces,
                    obs::MetricsRegistry* metrics);

  // Attaches a time-series recorder (may be null; must outlive the
  // harness). Run() advances it to each event's sim time before processing
  // the event and finishes it at the final event time, so window deltas
  // line up with sim-time boundaries.
  void SetTimeSeries(obs::TimeSeriesRecorder* recorder);

  // Runs all incidents to quiescence (or the event budget). Callable once.
  HarnessResult Run(const std::vector<HarnessIncident>& incidents);

  const RecoveryManager& manager() const { return manager_; }

 private:
  struct MachineState {
    bool sick = false;
    int cure_strength = 0;
    std::string symptom;
    bool awaiting_result = false;  // harness-side in-flight marker
    // Result-correlation id, bumped per executed action: a completion from
    // an action the manager already timed out is discarded instead of being
    // misattributed to the action currently in flight (real executors
    // correlate results to requests the same way).
    int epoch = 0;
    // Recovery episodes seen on this machine (fresh incidents while
    // healthy) and the trace id of the most recent one.
    std::int64_t episodes = 0;
    obs::TraceId trace = obs::kNoTrace;
  };

  // Appends one causal record when a collector is attached.
  void Trace(obs::TraceRecord record) const {
    if (traces_ != nullptr) traces_->Record(std::move(record));
  }

  HarnessConfig config_;
  RecoveryManager manager_;
  std::unordered_map<MachineId, MachineState> machines_;

  obs::TraceCollector* traces_ = nullptr;
  obs::TimeSeriesRecorder* timeseries_ = nullptr;
  // Cached metric handles (see RecoveryManager::SetObservers); all null
  // when no registry is attached.
  struct ObsMetrics {
    obs::Counter* incidents = nullptr;
    obs::Counter* cures = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* delayed = nullptr;
    obs::Counter* hangs = nullptr;
    obs::Counter* false_successes = nullptr;
    obs::StatMetric* reorder_depth = nullptr;
  };
  ObsMetrics obs_;
};

}  // namespace aer

#endif  // AER_INJECT_HARNESS_H_
