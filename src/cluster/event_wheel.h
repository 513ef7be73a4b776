// Hierarchical timing wheel for the fleet-scale cluster simulator.
//
// A binary-heap event queue costs O(log n) comparisons and a cache-hostile
// sift per push and pop. At fleet scale (10^6 machines, millions of
// in-flight events) the scheduler is the hot path, so this is the classic
// O(1) alternative: six wheels of 64 slots each, level l covering time
// deltas in [64^l, 64^(l+1)) ticks. An event lands in the slot addressed by
// its timestamp's level-l digit; when the clock crosses a level boundary
// the matching higher-level slot cascades down, re-bucketing its events one
// level lower. Popping advances a cursor tick by tick (jumping over provably
// empty spans), so schedule and pop are amortized O(1) regardless of how
// many events are pending.
//
// Determinism contract (docs/FLEET_SIM.md): events pop in strictly
// ascending (time, tie, id) order, where `tie` is a caller-supplied 64-bit
// key and `id` the schedule-order sequence number. The fleet engine packs
// (machine, kind, per-machine seq) into the tie, giving the
// (time, machine, kind) tie-break that makes shard execution independent
// of thread schedule.
// Cascading never reorders: equal-time events are re-sorted by (tie, id)
// when their slot drains, so the pop order is a pure function of the
// scheduled set, not of insertion history or wheel geometry.
#ifndef AER_CLUSTER_EVENT_WHEEL_H_
#define AER_CLUSTER_EVENT_WHEEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "log/action.h"
#include "log/log_entry.h"

namespace aer {

// The event vocabulary of the fleet simulator.
enum class FleetEventKind : std::uint8_t {
  kFaultArrival = 0,
  kSymptom = 1,
  kChooseAction = 2,  // detection complete or decision gap elapsed
  kActionDone = 3,
};

inline constexpr int kNumFleetEventKinds = 4;

struct FleetEvent {
  FleetEventKind kind = FleetEventKind::kFaultArrival;
  MachineId machine = 0;
  std::uint32_t process_seq = 0;  // guards stale per-machine events
  SymptomId symptom = kInvalidSymptom;          // kSymptom
  RepairAction action = RepairAction::kTryNop;  // kActionDone
};

// An event's schedule-order sequence number, the last key of the pop
// order. Ids are assigned in Schedule() order starting at 1; 0 never names
// an event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

struct ScheduledEvent {
  SimTime time = 0;
  std::uint64_t tie = 0;
  EventId id = kInvalidEventId;
  FleetEvent event;
};

class EventWheel {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr int kLevels = 6;
  // Maximum schedulable distance from now(): 64^6 ticks (~2180 years of
  // sim-seconds) — far beyond any simulated horizon, checked in Schedule().
  static constexpr SimTime kHorizon = SimTime{1} << (kSlotBits * kLevels);

  explicit EventWheel(SimTime start = 0);

  // Schedules an event at `time` (>= now()). Events at equal times pop in
  // ascending (tie, id) order. Returns the event's id.
  EventId Schedule(SimTime time, std::uint64_t tie, const FleetEvent& event);

  // Pops the next event in (time, tie, id) order into *out, advancing the
  // wheel clock to its timestamp. Returns false when no events are pending
  // (the clock then stays at the last popped timestamp).
  bool PopNext(ScheduledEvent* out);

  SimTime now() const { return now_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // High-water mark of pending events, for the aer_fleet_* gauges.
  std::size_t peak_size() const { return peak_size_; }

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t tie = 0;
    EventId id = kInvalidEventId;
    FleetEvent event;
  };
  using Bucket = std::vector<Entry>;

  static int LevelFor(SimTime delta);

  // Files an entry into its wheel slot. Entries at exactly now_ go to the
  // current drain buffer when `to_drain` (public Schedule — the slot for
  // now_ has already been emptied) and to the level-0 slot during cascades
  // (the slot is loaded right after the cascade completes).
  void Insert(const Entry& entry, bool to_drain);

  // Moves the level-`level` slot under the cursor one level down.
  void Cascade(int level);

  // Advances now_ to the next tick (jumping empty spans), cascades any
  // level boundaries crossed, and loads the level-0 slot into drain_.
  void AdvanceTick();

  SimTime now_;
  std::array<std::array<Bucket, kSlots>, kLevels> wheel_;
  std::array<std::size_t, kLevels> level_count_{};  // physical entries/level

  // Entries at time == now_, sorted by (tie, id); drain_pos_ is the next to
  // pop. Same-tick Schedule() calls insert in sorted position.
  std::vector<Entry> drain_;
  std::size_t drain_pos_ = 0;

  std::size_t size_ = 0;  // pending (scheduled minus popped)
  std::size_t peak_size_ = 0;
  EventId next_id_ = 1;
};

}  // namespace aer

#endif  // AER_CLUSTER_EVENT_WHEEL_H_
