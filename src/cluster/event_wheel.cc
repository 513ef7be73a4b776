#include "cluster/event_wheel.h"

#include <algorithm>

namespace aer {

EventWheel::EventWheel(SimTime start) : now_(start) {
  AER_CHECK_GE(start, 0);
}

int EventWheel::LevelFor(SimTime delta) {
  for (int l = 0; l < kLevels; ++l) {
    if ((delta >> (kSlotBits * (l + 1))) == 0) return l;
  }
  AER_CHECK(false) << "event beyond wheel horizon: delta=" << delta;
  return kLevels - 1;
}

void EventWheel::Insert(const Entry& entry, bool to_drain) {
  const SimTime delta = entry.time - now_;
  if (delta == 0 && to_drain) {
    // The level-0 slot for now_ has already been emptied; file into the
    // in-flight drain buffer at its sorted position (never before the
    // cursor: a same-tick schedule pops after everything already popped).
    const auto begin = drain_.begin() + static_cast<std::ptrdiff_t>(drain_pos_);
    const auto pos = std::upper_bound(
        begin, drain_.end(), entry, [](const Entry& a, const Entry& b) {
          if (a.tie != b.tie) return a.tie < b.tie;
          return a.id < b.id;
        });
    drain_.insert(pos, entry);
    return;
  }
  const int level = LevelFor(delta);
  const std::size_t slot =
      static_cast<std::size_t>(entry.time >> (kSlotBits * level)) &
      (kSlots - 1);
  wheel_[static_cast<std::size_t>(level)][slot].push_back(entry);
  ++level_count_[static_cast<std::size_t>(level)];
}

EventId EventWheel::Schedule(SimTime time, std::uint64_t tie,
                             const FleetEvent& event) {
  AER_CHECK_GE(time, now_);
  AER_CHECK_LT(time - now_, kHorizon);
  const EventId id = next_id_++;
  Insert(Entry{time, tie, id, event}, /*to_drain=*/true);
  ++size_;
  peak_size_ = std::max(peak_size_, size_);
  return id;
}

void EventWheel::Cascade(int level) {
  const std::size_t slot =
      static_cast<std::size_t>(now_ >> (kSlotBits * level)) & (kSlots - 1);
  Bucket& bucket = wheel_[static_cast<std::size_t>(level)][slot];
  if (bucket.empty()) return;
  Bucket moved;
  moved.swap(bucket);
  level_count_[static_cast<std::size_t>(level)] -= moved.size();
  for (const Entry& e : moved) Insert(e, /*to_drain=*/false);
}

void EventWheel::AdvanceTick() {
  drain_.clear();
  drain_pos_ = 0;

  // Jump over spans that provably hold no events: with levels 0..l-1 empty,
  // nothing can fire before the next level-l boundary (a level-l slot only
  // releases its events when the cursor reaches its window).
  SimTime next = now_ + 1;
  if (level_count_[0] == 0) {
    int lowest = 1;
    while (lowest < kLevels &&
           level_count_[static_cast<std::size_t>(lowest)] == 0) {
      ++lowest;
    }
    if (lowest < kLevels) {
      const SimTime span = SimTime{1} << (kSlotBits * lowest);
      const SimTime boundary = (now_ / span + 1) * span;
      next = std::max(next, boundary);
    }
  }
  now_ = next;

  // Cascade every level boundary this tick crosses, highest level first so
  // entries re-bucket through intermediate levels correctly.
  for (int level = kLevels - 1; level >= 1; --level) {
    const SimTime span = SimTime{1} << (kSlotBits * level);
    if (now_ % span == 0) Cascade(level);
  }

  // Load the level-0 slot for the new tick and order it. Every entry
  // in it is due exactly now; equal-time order is (tie, id) by contract.
  Bucket& bucket = wheel_[0][static_cast<std::size_t>(now_) & (kSlots - 1)];
  for (const Entry& e : bucket) {
    AER_DCHECK_EQ(e.time, now_);
    drain_.push_back(e);
  }
  level_count_[0] -= bucket.size();
  bucket.clear();
  std::sort(drain_.begin(), drain_.end(), [](const Entry& a, const Entry& b) {
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.id < b.id;
  });
}

bool EventWheel::PopNext(ScheduledEvent* out) {
  AER_CHECK(out != nullptr);
  for (;;) {
    if (drain_pos_ < drain_.size()) {
      const Entry& e = drain_[drain_pos_++];
      out->time = e.time;
      out->tie = e.tie;
      out->id = e.id;
      out->event = e.event;
      AER_CHECK_GT(size_, 0u);
      --size_;
      return true;
    }
    if (size_ == 0) return false;
    AdvanceTick();
  }
}

}  // namespace aer
