// A map from 32-bit ids (machine or symptom ids) to one uint32 value each:
// linear probing over a power-of-two table that doubles at half load. A
// multiplicative hash spreads sparse, negative and extreme ids as well as
// dense ones, so no id range is assumed.
#ifndef AER_LOG_ID_TABLE_H_
#define AER_LOG_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aer {

class IdTable {
 public:
  // `absent` is the value an id has when first looked up.
  explicit IdTable(std::uint32_t absent) : absent_(absent) {}

  // The value of `id`, added as `absent` on first sight. The reference is
  // valid until the next call.
  std::uint32_t& operator[](std::int32_t id) {
    std::size_t i = Probe(id);
    if (!slots_[i].used) {
      if (2 * (size_ + 1) > slots_.size()) {
        Grow();
        i = Probe(id);
      }
      slots_[i] = {id, absent_, true};
      ++size_;
    }
    return slots_[i].value;
  }

 private:
  struct Slot {
    std::int32_t id = 0;
    std::uint32_t value = 0;
    bool used = false;
  };

  // The slot holding `id`, or the empty slot where it would go.
  std::size_t Probe(std::int32_t id) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        (static_cast<std::uint32_t>(id) * 0x9E3779B9u) >> (32 - bits_);
    while (slots_[i].used && slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Slot> old(std::size_t{2} << bits_);
    old.swap(slots_);
    ++bits_;
    for (const Slot& slot : old) {
      if (slot.used) slots_[Probe(slot.id)] = slot;
    }
  }

  std::uint32_t absent_;
  int bits_ = 4;
  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << bits_);
  std::size_t size_ = 0;
};

}  // namespace aer

#endif  // AER_LOG_ID_TABLE_H_
