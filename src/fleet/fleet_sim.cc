#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "cluster/event_wheel.h"
#include "common/check.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "common/time_merge.h"

namespace aer::fleet {

// Interned symptom ids and fault-sampling tables, shared by every shard.
// Interning order (per fault: primary, then its secondaries; then generics)
// fixes the symptom ids — and therefore the log bytes — for a catalog; it
// is part of the pinned-output contract (docs/FLEET_SIM.md).
struct FleetSimTables {
  std::vector<SymptomId> primary;
  std::vector<std::vector<SymptomId>> aux;
  std::vector<SymptomId> generic;
  std::vector<double> cum_rate;
  double total_rate = 0.0;
  int emitted_capacity = 1;  // primary + largest secondary set
};

// Everything one shard contributes to the merged SimulationResult, plus the
// shard-local engine statistics folded into the aer_fleet_* metrics. Each
// shard fills its own slot of Run()'s presized vector; the ParallelFor
// barrier publishes the slots to the merge.
struct ShardOutput {
  // In (time, machine) order: the order the shard's wheel pops events.
  std::vector<LogEntry> entries;
  // In (start, machine) order (sorted at the end of the shard's run).
  std::vector<ProcessGroundTruth> ground_truth;
  // Sampled causal trace records, (time, machine) order. Merged into the
  // attached TraceCollector via MergeShards — byte-identical for any
  // shard-to-thread assignment. Empty unless tracing is attached.
  std::vector<obs::TraceRecord> trace;
  std::int64_t fault_arrivals = 0;
  std::int64_t fault_arrivals_skipped = 0;
  std::int64_t processes_completed = 0;
  SimTime total_downtime = 0;
  std::uint64_t events_processed = 0;
  std::size_t wheel_peak = 0;  // high-water mark of the shard's event wheel
};

namespace {

using Tables = FleetSimTables;

Tables BuildTables(const FaultCatalog& catalog, SymptomTable& symtab) {
  Tables t;
  t.primary.resize(catalog.faults.size());
  t.aux.resize(catalog.faults.size());
  int max_aux = 0;
  for (std::size_t f = 0; f < catalog.faults.size(); ++f) {
    t.primary[f] = symtab.Intern(catalog.faults[f].primary_symptom);
    for (const SecondarySymptom& s : catalog.faults[f].secondary_symptoms) {
      t.aux[f].push_back(symtab.Intern(s.name));
    }
    max_aux = std::max(max_aux, static_cast<int>(t.aux[f].size()));
  }
  t.generic.resize(catalog.generic_symptoms.size());
  for (std::size_t g = 0; g < catalog.generic_symptoms.size(); ++g) {
    t.generic[g] = symtab.Intern(catalog.generic_symptoms[g].name);
  }
  t.cum_rate.reserve(catalog.faults.size());
  for (const FaultType& f : catalog.faults) {
    t.total_rate += f.relative_rate;
    t.cum_rate.push_back(t.total_rate);
  }
  t.emitted_capacity = 1 + max_aux;
  return t;
}

// Weighted fault draw (one NextDouble).
std::size_t SampleFault(Rng& rng, const Tables& t) {
  const double u = rng.NextDouble() * t.total_rate;
  const auto it = std::lower_bound(t.cum_rate.begin(), t.cum_rate.end(), u);
  return static_cast<std::size_t>(std::min<std::ptrdiff_t>(
      it - t.cum_rate.begin(),
      static_cast<std::ptrdiff_t>(t.cum_rate.size()) - 1));
}

// The recovery-process state machine of one shard. Draw order inside a
// process is fixed (the pinned outputs depend on it, draw for draw). Every
// machine draws from its own Rng stream (DeriveStream(seed, machine)) and
// numbers its event ties (machine, kind, per-machine seq), so no draw and no
// byte of state crosses a machine boundary: shard composition — and with it
// thread count and shard count — cannot affect the output.
class EngineCore {
 public:
  EngineCore(const ClusterSimConfig& cfg, const FaultCatalog& catalog,
             const Tables& tables, FleetState& state, EventWheel& wheel,
             RecoveryPolicy& policy, ShardOutput& out, MachineId begin,
             MachineId end, const obs::TraceCollector* traces)
      : cfg_(cfg),
        catalog_(catalog),
        t_(tables),
        st_(state),
        wheel_(wheel),
        policy_(policy),
        out_(out),
        traces_(traces),
        base_(begin) {
    const std::size_t n = static_cast<std::size_t>(end - begin);
    rngs_.reserve(n);
    for (MachineId m = begin; m < end; ++m) {
      rngs_.emplace_back(DeriveStream(cfg.seed, static_cast<std::uint64_t>(m)));
    }
    seqs_.assign(n, 0);
  }

  Rng& RngFor(MachineId m) {
    return rngs_[static_cast<std::size_t>(m - base_)];
  }

  // Buffers one sampled causal trace record into the shard output. The id
  // is a pure function of (seed, machine, process ordinal) and the sampling
  // decision a pure function of the id, so every shard agrees without
  // coordination and tracing never perturbs the simulation.
  void Trace(SimTime time, MachineId m, obs::TraceEventKind kind, int attempt,
             int action, std::string detail = {}) {
    if (traces_ == nullptr) return;
    const obs::TraceId id =
        obs::MakeTraceId(cfg_.seed, m, st_.process_seq(m));
    if (!traces_->Sampled(id)) return;
    obs::TraceRecord record;
    record.trace_id = id;
    record.time = time;
    record.kind = kind;
    record.machine = m;
    record.attempt = attempt;
    record.action = action;
    record.detail = std::move(detail);
    out_.trace.push_back(std::move(record));
  }

  void Push(SimTime time, FleetEventKind kind, MachineId machine,
            std::uint32_t process_seq, SymptomId symptom,
            RepairAction action) {
    FleetEvent ev;
    ev.kind = kind;
    ev.machine = machine;
    ev.process_seq = process_seq;
    ev.symptom = symptom;
    ev.action = action;
    // (machine, kind, per-machine seq): 30 bits of machine id, 2 of kind,
    // 32 of sequence. The FleetSimulator ctor checks the fleet fits.
    const std::uint64_t tie =
        (static_cast<std::uint64_t>(machine) << 34) |
        (static_cast<std::uint64_t>(kind) << 32) |
        static_cast<std::uint64_t>(
            seqs_[static_cast<std::size_t>(machine - base_)]++);
    wheel_.Schedule(time, tie, ev);
  }

  // Fault arrival accepted on a healthy machine: draw the fault and open a
  // recovery process.
  void BeginProcess(SimTime now, MachineId m) {
    Rng& rng = RngFor(m);
    const std::size_t f = SampleFault(rng, t_);
    st_.set_healthy(m, false);
    st_.bump_process_seq(m);
    st_.set_fault_index(m, static_cast<std::int32_t>(f));
    st_.set_noisy(m, false);
    st_.ClearProcess(m);
    st_.set_process_start(m, now);
    const std::uint32_t pseq = st_.process_seq(m);
    const FaultType& fault = catalog_.faults[f];

    // Primary symptom opens the process.
    out_.entries.push_back(LogEntry::Symptom(now, m, t_.primary[f]));
    st_.PushEmitted(m, t_.primary[f]);
    Trace(now, m, obs::TraceEventKind::kIncident, -1, -1,
          fault.primary_symptom);
    Trace(now, m, obs::TraceEventKind::kSymptom, -1, -1,
          fault.primary_symptom);

    // Detection completes after the monitoring delay; all secondary
    // symptoms land inside that window.
    const SimTime detect_delay = std::max<SimTime>(
        30, static_cast<SimTime>(rng.NextLogNormalWithMean(
                cfg_.mean_detection_delay_s, cfg_.detection_delay_sigma)));
    for (std::size_t a = 0; a < fault.secondary_symptoms.size(); ++a) {
      if (!rng.NextBool(fault.secondary_symptoms[a].probability)) continue;
      const SimTime offset =
          1 + static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
                  std::max<SimTime>(detect_delay - 1, 1))));
      Push(now + offset, FleetEventKind::kSymptom, m, pseq, t_.aux[f][a],
           RepairAction::kTryNop);
      st_.PushEmitted(m, t_.aux[f][a]);
    }

    // Generic machine-level noise symptoms.
    for (std::size_t g = 0; g < t_.generic.size(); ++g) {
      if (!rng.NextBool(catalog_.generic_symptoms[g].probability)) continue;
      st_.set_noisy(m, true);
      const SimTime offset =
          1 + static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
                  std::max<SimTime>(detect_delay - 1, 1))));
      Push(now + offset, FleetEventKind::kSymptom, m, pseq, t_.generic[g],
           RepairAction::kTryNop);
    }

    // Optional cross-fault noise: an unrelated fault's primary symptom
    // leaks into this process.
    if (rng.NextBool(cfg_.cross_fault_noise_probability)) {
      const std::size_t other = SampleFault(rng, t_);
      if (other != f) {
        st_.set_noisy(m, true);
        const SimTime offset =
            1 +
            static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
                std::max<SimTime>(detect_delay - 1, 1))));
        Push(now + offset, FleetEventKind::kSymptom, m, pseq,
             t_.primary[other], RepairAction::kTryNop);
      }
    }

    Push(now + detect_delay, FleetEventKind::kChooseAction, m, pseq,
         kInvalidSymptom, RepairAction::kTryNop);
  }

  void HandleSymptom(const ScheduledEvent& e) {
    if (Stale(e)) return;
    out_.entries.push_back(
        LogEntry::Symptom(e.time, e.event.machine, e.event.symptom));
    Trace(e.time, e.event.machine, obs::TraceEventKind::kSymptom, -1, -1);
  }

  void HandleChooseAction(const ScheduledEvent& e) {
    if (Stale(e)) return;
    StartAction(e.time, e.event.machine);
  }

  void HandleActionDone(const ScheduledEvent& e) {
    if (Stale(e)) return;
    const MachineId m = e.event.machine;
    Rng& rng = RngFor(m);
    const std::size_t f = static_cast<std::size_t>(st_.fault_index(m));
    const FaultType& fault = catalog_.faults[f];
    const double cure_p =
        fault.responses[static_cast<std::size_t>(ActionIndex(e.event.action))]
            .cure_probability;
    const bool cured = rng.NextBool(cure_p);

    // Result monitoring: the tried span excludes the action whose outcome
    // is being reported.
    {
      RecoveryContext ctx;
      ctx.machine = m;
      ctx.initial_symptom = t_.primary[f];
      ctx.initial_symptom_name = fault.primary_symptom;
      AER_CHECK_GT(st_.tried_count(m), 0);
      ctx.tried = std::span<const RepairAction>(
          st_.tried_data(m), static_cast<std::size_t>(st_.tried_count(m) - 1));
      ctx.process_start = st_.process_start(m);
      ctx.now = e.time;
      ctx.last_recovery_end = st_.last_recovery_end(m);
      policy_.OnActionOutcome(ctx, e.event.action,
                              e.time - st_.last_action_start(m), cured);
    }

    Trace(e.time, m, obs::TraceEventKind::kActionDone,
          st_.tried_count(m) - 1, ActionIndex(e.event.action),
          cured ? "cured" : "sick");
    if (cured) {
      Trace(e.time, m, obs::TraceEventKind::kCure, st_.tried_count(m) - 1,
            ActionIndex(e.event.action));
      out_.entries.push_back(LogEntry::Success(e.time, m));
      out_.ground_truth.push_back({.machine = m,
                                   .start = st_.process_start(m),
                                   .end = e.time,
                                   .fault_index = st_.fault_index(m),
                                   .noisy = st_.noisy(m)});
      ++out_.processes_completed;
      out_.total_downtime += e.time - st_.process_start(m);
      st_.set_healthy(m, true);
      st_.set_last_recovery_end(m, e.time);
      return;
    }
    // Result monitoring is machine-local: the failed outcome is "delivered"
    // with zero transit, so the decision gap shows up as timeout_wait in
    // the critical path rather than an unattributed hole.
    Trace(e.time, m, obs::TraceEventKind::kResultDeliver,
          st_.tried_count(m) - 1, ActionIndex(e.event.action), "sick");
    // Failed: maybe re-emit a realized symptom, then choose the next action
    // after a decision gap.
    if (rng.NextBool(cfg_.symptom_reemit_probability) &&
        st_.emitted_count(m) > 0) {
      const SymptomId s = st_.emitted_at(
          m, static_cast<int>(rng.NextBounded(
                 static_cast<std::uint64_t>(st_.emitted_count(m)))));
      const SimTime offset = 5 + static_cast<SimTime>(rng.NextBounded(50));
      Push(e.time + offset, FleetEventKind::kSymptom, m, st_.process_seq(m),
           s, RepairAction::kTryNop);
    }
    const SimTime gap =
        cfg_.min_decision_gap_s +
        static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
            cfg_.max_decision_gap_s - cfg_.min_decision_gap_s + 1)));
    Push(e.time + gap, FleetEventKind::kChooseAction, m, st_.process_seq(m),
         kInvalidSymptom, RepairAction::kTryNop);
  }

 private:
  bool Stale(const ScheduledEvent& e) const {
    const MachineId m = e.event.machine;
    return st_.healthy(m) || st_.process_seq(m) != e.event.process_seq;
  }

  void StartAction(SimTime now, MachineId m) {
    Rng& rng = RngFor(m);
    const std::size_t f = static_cast<std::size_t>(st_.fault_index(m));
    const FaultType& fault = catalog_.faults[f];

    RepairAction action;
    if (st_.tried_count(m) >= cfg_.max_actions_per_process - 1) {
      // The paper's N cap: end the process by requesting manual repair.
      action = RepairAction::kRma;
    } else {
      RecoveryContext ctx;
      ctx.machine = m;
      ctx.initial_symptom = t_.primary[f];
      ctx.initial_symptom_name = fault.primary_symptom;
      ctx.tried = std::span<const RepairAction>(
          st_.tried_data(m), static_cast<std::size_t>(st_.tried_count(m)));
      ctx.process_start = st_.process_start(m);
      ctx.now = now;
      ctx.last_recovery_end = st_.last_recovery_end(m);
      action = policy_.ChooseAction(ctx);
    }

    st_.PushTried(m, action);
    st_.set_last_action_start(m, now);
    out_.entries.push_back(LogEntry::Action(now, m, action));
    Trace(now, m, obs::TraceEventKind::kDispatch, st_.tried_count(m) - 1,
          ActionIndex(action));
    Trace(now, m, obs::TraceEventKind::kActionStart,
          st_.tried_count(m) - 1, ActionIndex(action));
    const ActionResponse& resp =
        fault.responses[static_cast<std::size_t>(ActionIndex(action))];
    const SimTime duration = std::max<SimTime>(
        1, static_cast<SimTime>(
               st_.speed(m) * rng.NextLogNormalWithMean(resp.mean_duration_s,
                                                        resp.duration_sigma)));
    Push(now + duration, FleetEventKind::kActionDone, m, st_.process_seq(m),
         kInvalidSymptom, action);
  }

  const ClusterSimConfig& cfg_;
  const FaultCatalog& catalog_;
  const Tables& t_;
  FleetState& st_;
  EventWheel& wheel_;
  RecoveryPolicy& policy_;
  ShardOutput& out_;
  const obs::TraceCollector* traces_;
  MachineId base_;
  std::vector<Rng> rngs_;
  std::vector<std::uint32_t> seqs_;
};

}  // namespace

FleetSimulator::FleetSimulator(FleetSimConfig config, FaultCatalog catalog)
    : config_(config), catalog_(std::move(catalog)) {
  const ClusterSimConfig& sim = config_.sim;
  AER_CHECK_GT(sim.num_machines, 0);
  // The sharded tie packs the machine id into 30 bits.
  AER_CHECK_LE(sim.num_machines, 1 << 28);
  AER_CHECK_GT(sim.duration, 0);
  AER_CHECK_GT(sim.machine_mtbf_days, 0.0);
  AER_CHECK_GE(sim.max_actions_per_process, 1);
  AER_CHECK_LE(sim.min_decision_gap_s, sim.max_decision_gap_s);
  AER_CHECK_GE(sim.diurnal_amplitude, 0.0);
  AER_CHECK_LT(sim.diurnal_amplitude, 1.0);
  catalog_.Validate();
}

int FleetSimulator::num_shards() const {
  const int machines = config_.sim.num_machines;
  if (config_.num_shards > 0) return std::min(config_.num_shards, machines);
  // Config-pure default: one shard per 16k machines, capped at 64 (a 10^6
  // fleet gets 62 shards; small test fleets run single-shard).
  return std::clamp(machines / 16384, 1, 64);
}

ShardOutput FleetSimulator::RunShard(int shard, int shards,
                                     const FleetSimTables& t,
                                     FleetState& state,
                                     RecoveryPolicy& policy) const {
  AER_PROFILE_SCOPE("fleet_shard");
  const ClusterSimConfig& cfg = config_.sim;
  const MachineId begin = static_cast<MachineId>(
      static_cast<std::int64_t>(cfg.num_machines) * shard / shards);
  const MachineId end = static_cast<MachineId>(
      static_cast<std::int64_t>(cfg.num_machines) * (shard + 1) / shards);

  ShardOutput out;
  EventWheel wheel(0);
  EngineCore engine(cfg, catalog_, t, state, wheel, policy, out, begin, end,
                    traces_);

  // Per-machine Poisson arrivals at rate 1/mtbf (their superposition is a
  // fleet-level Poisson process at rate num_machines/mtbf), with no draw
  // shared across machines. Diurnal thinning against the peak rate keeps
  // the mean rate.
  const double machine_rate =
      1.0 / (cfg.machine_mtbf_days * static_cast<double>(kDay));
  const double peak_rate = machine_rate * (1.0 + cfg.diurnal_amplitude);
  const auto schedule_next_arrival = [&](MachineId m, SimTime now) {
    const SimTime dt = std::max<SimTime>(
        1, static_cast<SimTime>(
               engine.RngFor(m).NextExponential(1.0 / peak_rate)));
    if (now + dt <= cfg.duration) {
      engine.Push(now + dt, FleetEventKind::kFaultArrival, m, 0,
                  kInvalidSymptom, RepairAction::kTryNop);
    }
  };
  const auto accept_arrival = [&](MachineId m, SimTime time) {
    if (cfg.diurnal_amplitude == 0.0) return true;
    const double factor =
        (1.0 + cfg.diurnal_amplitude *
                   std::sin(2.0 * 3.14159265358979323846 *
                            static_cast<double>(time % kDay) /
                            static_cast<double>(kDay))) /
        (1.0 + cfg.diurnal_amplitude);
    return engine.RngFor(m).NextDouble() < factor;
  };

  // Machine init, per machine stream: the speed draw (when spread > 0)
  // comes first, then the first arrival.
  for (MachineId m = begin; m < end; ++m) {
    if (cfg.machine_speed_spread > 0.0) {
      state.set_speed(
          m, std::max(0.1, 1.0 + cfg.machine_speed_spread *
                                     (2.0 * engine.RngFor(m).NextDouble() -
                                      1.0)));
    }
    schedule_next_arrival(m, 0);
  }

  ScheduledEvent e;
  while (wheel.PopNext(&e)) {
    ++out.events_processed;
    const MachineId m = e.event.machine;
    switch (e.event.kind) {
      case FleetEventKind::kFaultArrival: {
        schedule_next_arrival(m, e.time);
        if (!accept_arrival(m, e.time)) break;  // thinned (off-peak)
        ++out.fault_arrivals;
        if (!state.healthy(m)) {
          // The machine is mid-recovery; the fault is lost rather than
          // redirected to another machine, which would be state shared
          // across shards (docs/FLEET_SIM.md).
          ++out.fault_arrivals_skipped;
          break;
        }
        engine.BeginProcess(e.time, m);
        break;
      }
      case FleetEventKind::kSymptom:
        engine.HandleSymptom(e);
        break;
      case FleetEventKind::kChooseAction:
        engine.HandleChooseAction(e);
        break;
      case FleetEventKind::kActionDone:
        engine.HandleActionDone(e);
        break;
    }
  }
  out.wheel_peak = wheel.peak_size();
  // Entries and trace records leave the wheel in (time, machine) order; the
  // ground truth is filed at cure time, so it is put in (start, machine)
  // order here, on the shard's thread, for the merge.
  std::stable_sort(
      out.ground_truth.begin(), out.ground_truth.end(),
      [](const ProcessGroundTruth& a, const ProcessGroundTruth& b) {
        if (a.start != b.start) return a.start < b.start;
        return a.machine < b.machine;
      });
  return out;
}

SimulationResult FleetSimulator::Run(RecoveryPolicy& policy,
                                     ThreadPool* pool) {
  AER_PROFILE_SCOPE("fleet_run");
  SymptomTable symptoms;
  const FleetSimTables tables = BuildTables(catalog_, symptoms);
  const int shards = num_shards();

  // One global SoA block; shards own disjoint machine-id ranges of it.
  FleetState state(FleetState::Layout{
      .num_machines = config_.sim.num_machines,
      .tried_capacity = config_.sim.max_actions_per_process,
      .emitted_capacity = tables.emitted_capacity});
  std::vector<ShardOutput> outputs(static_cast<std::size_t>(shards));
  ParallelFor(pool, outputs.size(), [&](std::size_t s) {
    outputs[s] = RunShard(static_cast<int>(s), shards, tables, state, policy);
  });

  return Finalize(std::move(outputs), std::move(symptoms), pool);
}

SimulationResult FleetSimulator::Finalize(std::vector<ShardOutput> outputs,
                                          SymptomTable symptoms,
                                          ThreadPool* pool) {
  AER_PROFILE_SCOPE("fleet_merge");
  SimulationResult result;
  std::int64_t arrivals = 0;
  std::uint64_t events = 0;
  std::size_t wheel_peak = 0;
  std::vector<std::vector<LogEntry>> entries;
  std::vector<std::vector<ProcessGroundTruth>> ground_truth;
  std::vector<std::vector<obs::TraceRecord>> traces;
  entries.reserve(outputs.size());
  ground_truth.reserve(outputs.size());
  traces.reserve(outputs.size());
  for (ShardOutput& out : outputs) {
    entries.push_back(std::move(out.entries));
    ground_truth.push_back(std::move(out.ground_truth));
    traces.push_back(std::move(out.trace));
    result.fault_arrivals_skipped += out.fault_arrivals_skipped;
    result.processes_completed += out.processes_completed;
    result.total_downtime += out.total_downtime;
    arrivals += out.fault_arrivals;
    events += out.events_processed;
    wheel_peak = std::max(wheel_peak, out.wheel_peak);
  }
  // Shards are ascending machine-ID ranges and each shard's runs are in
  // (time, machine) — ground truth (start, machine) — order, so the merge
  // equals a stable sort of the shards' concatenation (common/time_merge.h).
  if (traces_ != nullptr) traces_->MergeShards(std::move(traces), pool);
  result.log = RecoveryLog(
      MergeTimeOrderedRuns(
          std::move(entries),
          [](const LogEntry& e) { return TimeKey{e.time, e.machine}; }, pool),
      std::move(symptoms));
  result.ground_truth = MergeTimeOrderedRuns(
      std::move(ground_truth),
      [](const ProcessGroundTruth& g) { return TimeKey{g.start, g.machine}; },
      pool);

  if (metrics_ != nullptr) {
    metrics_->GetCounter("aer_fleet_events_total")
        .Inc(static_cast<std::int64_t>(events));
    metrics_->GetCounter("aer_fleet_arrivals_total").Inc(arrivals);
    metrics_->GetCounter("aer_fleet_arrivals_skipped_total")
        .Inc(result.fault_arrivals_skipped);
    metrics_->GetCounter("aer_fleet_processes_total")
        .Inc(result.processes_completed);
    metrics_->GetCounter("aer_fleet_downtime_seconds_total")
        .Inc(result.total_downtime);
    metrics_->GetGauge("aer_fleet_machines")
        .Set(static_cast<double>(config_.sim.num_machines));
    metrics_->GetGauge("aer_fleet_shards")
        .Set(static_cast<double>(outputs.size()));
    metrics_->GetGauge("aer_fleet_wheel_peak_events")
        .Set(static_cast<double>(wheel_peak));
  }
  return result;
}

}  // namespace aer::fleet
