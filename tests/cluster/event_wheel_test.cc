// Property/unit tests for the hierarchical timing wheel: ordering, tie-break
// determinism, multi-level cascade, size accounting, and a randomized
// heap-vs-wheel differential.
#include "cluster/event_wheel.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aer {
namespace {

FleetEvent Ev(MachineId m) {
  FleetEvent e;
  e.machine = m;
  return e;
}

struct Popped {
  SimTime time;
  std::uint64_t tie;
  MachineId machine;
};

std::vector<Popped> DrainAll(EventWheel& wheel) {
  std::vector<Popped> out;
  ScheduledEvent e;
  while (wheel.PopNext(&e)) {
    out.push_back({e.time, e.tie, e.event.machine});
  }
  return out;
}

TEST(EventWheelTest, PopsInTimeOrder) {
  EventWheel wheel;
  const std::vector<SimTime> times = {500, 3, 70, 1, 4096, 64, 63, 65, 2};
  for (std::size_t i = 0; i < times.size(); ++i) {
    wheel.Schedule(times[i], /*tie=*/0, Ev(static_cast<MachineId>(i)));
  }
  EXPECT_EQ(wheel.size(), times.size());
  const std::vector<Popped> popped = DrainAll(wheel);
  ASSERT_EQ(popped.size(), times.size());
  std::vector<SimTime> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].time, sorted[i]);
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelTest, SameTimestampPopsByTie) {
  EventWheel wheel;
  wheel.Schedule(100, 5, Ev(5));
  wheel.Schedule(100, 1, Ev(1));
  wheel.Schedule(100, 3, Ev(3));
  wheel.Schedule(50, 9, Ev(9));
  const std::vector<Popped> popped = DrainAll(wheel);
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_EQ(popped[0].machine, 9);
  EXPECT_EQ(popped[1].machine, 1);
  EXPECT_EQ(popped[2].machine, 3);
  EXPECT_EQ(popped[3].machine, 5);
}

// The pop sequence is a pure function of the scheduled set: scheduling the
// same (time, tie) set in any insertion order yields the same sequence.
TEST(EventWheelTest, TieBreakIndependentOfInsertionOrder) {
  std::vector<std::pair<SimTime, std::uint64_t>> events;
  for (SimTime t : {10, 4000, 10, 200, 10, 200, 70000, 4000}) {
    events.push_back({t, static_cast<std::uint64_t>(events.size() * 7 % 5)});
  }
  std::vector<std::vector<Popped>> orders;
  for (int perm = 0; perm < 2; ++perm) {
    EventWheel wheel;
    std::vector<std::pair<SimTime, std::uint64_t>> shuffled = events;
    if (perm == 1) std::reverse(shuffled.begin(), shuffled.end());
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      wheel.Schedule(shuffled[i].first, shuffled[i].second,
                     Ev(static_cast<MachineId>(shuffled[i].second)));
    }
    orders.push_back(DrainAll(wheel));
  }
  ASSERT_EQ(orders[0].size(), orders[1].size());
  for (std::size_t i = 0; i < orders[0].size(); ++i) {
    EXPECT_EQ(orders[0][i].time, orders[1][i].time) << i;
    EXPECT_EQ(orders[0][i].tie, orders[1][i].tie) << i;
  }
}

// Equal (time, tie) falls back to schedule order (the id).
TEST(EventWheelTest, EqualTiesPopInScheduleOrder) {
  EventWheel wheel;
  wheel.Schedule(9, 7, Ev(0));
  wheel.Schedule(9, 7, Ev(1));
  wheel.Schedule(9, 7, Ev(2));
  const std::vector<Popped> popped = DrainAll(wheel);
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0].machine, 0);
  EXPECT_EQ(popped[1].machine, 1);
  EXPECT_EQ(popped[2].machine, 2);
}

// Events several levels up must cascade down through the wheels and still
// pop at exactly their timestamp, including ties scheduled far apart.
TEST(EventWheelTest, OverflowWheelCascade) {
  EventWheel wheel;
  // One event per level boundary region, plus same-time pairs that meet
  // only after cascading from different levels.
  const SimTime far = SimTime{64} * 64 * 64 * 64 + 17;  // level 3 territory
  wheel.Schedule(far, 2, Ev(2));
  wheel.Schedule(far, 1, Ev(1));
  wheel.Schedule(SimTime{64} * 64 * 64 - 1, 0, Ev(3));
  wheel.Schedule(SimTime{64} * 64 + 5, 0, Ev(4));
  wheel.Schedule(SimTime{64} - 1, 0, Ev(5));
  wheel.Schedule(1, 0, Ev(6));

  const std::vector<Popped> popped = DrainAll(wheel);
  ASSERT_EQ(popped.size(), 6u);
  EXPECT_EQ(popped[0].machine, 6);
  EXPECT_EQ(popped[1].machine, 5);
  EXPECT_EQ(popped[2].machine, 4);
  EXPECT_EQ(popped[3].machine, 3);
  EXPECT_EQ(popped[4].machine, 1);  // same time: tie 1 before tie 2
  EXPECT_EQ(popped[5].machine, 2);
  EXPECT_EQ(popped[4].time, far);
  EXPECT_EQ(popped[5].time, far);
}

TEST(EventWheelTest, ScheduleAtCurrentTimePopsNext) {
  EventWheel wheel;
  wheel.Schedule(10, 1, Ev(0));
  wheel.Schedule(10, 3, Ev(2));
  ScheduledEvent e;
  ASSERT_TRUE(wheel.PopNext(&e));
  EXPECT_EQ(e.event.machine, 0);
  EXPECT_EQ(wheel.now(), 10);
  // Still inside tick 10: a same-tick schedule with an intermediate tie
  // pops before the pending tie-3 event.
  wheel.Schedule(10, 2, Ev(1));
  ASSERT_TRUE(wheel.PopNext(&e));
  EXPECT_EQ(e.event.machine, 1);
  ASSERT_TRUE(wheel.PopNext(&e));
  EXPECT_EQ(e.event.machine, 2);
  EXPECT_FALSE(wheel.PopNext(&e));
}

TEST(EventWheelTest, SizeAndPeakAccounting) {
  EventWheel wheel;
  EXPECT_TRUE(wheel.empty());
  for (int i = 0; i < 10; ++i) wheel.Schedule(10 + i, 0, Ev(i));
  EXPECT_EQ(wheel.size(), 10u);
  EXPECT_EQ(wheel.peak_size(), 10u);
  ScheduledEvent e;
  ASSERT_TRUE(wheel.PopNext(&e));
  EXPECT_EQ(wheel.size(), 9u);
  EXPECT_EQ(wheel.peak_size(), 10u);  // high-water mark sticks
}

// Randomized 10^5-event differential against a reference binary heap
// ordered by (time, tie, id), with interleaved schedule/pop.
TEST(EventWheelTest, RandomizedHeapDifferential) {
  using Ref = std::tuple<SimTime, std::uint64_t, EventId>;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> heap;

  EventWheel wheel;
  Rng rng(20260808);
  SimTime now = 0;
  std::size_t scheduled = 0;
  std::size_t popped = 0;
  std::size_t compared = 0;

  const std::size_t kEvents = 100000;
  while (scheduled < kEvents || wheel.size() > 0) {
    const std::uint64_t op = rng.NextBounded(10);
    if (scheduled < kEvents && (op < 6 || wheel.empty())) {
      // Mix of horizons: mostly near, sometimes multiple levels up; biased
      // ties force plenty of same-(time, tie) collisions.
      SimTime dt = 0;
      switch (rng.NextBounded(4)) {
        case 0: dt = static_cast<SimTime>(rng.NextBounded(4)); break;
        case 1: dt = static_cast<SimTime>(rng.NextBounded(64)); break;
        case 2: dt = static_cast<SimTime>(rng.NextBounded(64 * 64)); break;
        default:
          dt = static_cast<SimTime>(rng.NextBounded(64 * 64 * 64 * 8));
          break;
      }
      const SimTime t = now + dt;
      const std::uint64_t tie = rng.NextBounded(3);
      const EventId id = wheel.Schedule(t, tie, Ev(0));
      heap.push({t, tie, id});
      ++scheduled;
    } else {
      // Pop and compare against the reference.
      ScheduledEvent e;
      const bool got = wheel.PopNext(&e);
      ASSERT_EQ(got, !heap.empty()) << "after " << popped << " pops";
      if (!got) continue;
      const Ref expect = heap.top();
      heap.pop();
      ASSERT_EQ(e.time, std::get<0>(expect)) << "pop " << popped;
      ASSERT_EQ(e.tie, std::get<1>(expect)) << "pop " << popped;
      ASSERT_EQ(e.id, std::get<2>(expect)) << "pop " << popped;
      now = e.time;
      ++popped;
      ++compared;
    }
  }
  EXPECT_EQ(scheduled, kEvents);
  EXPECT_GT(compared, kEvents / 2);
  EXPECT_TRUE(wheel.empty());
}

}  // namespace
}  // namespace aer
