#ifndef AIM_RTA_GROUP_TABLE_H_
#define AIM_RTA_GROUP_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace aim {

/// Flat open-addressing map from a u64 group key to a dense group index,
/// handed out in insertion order. Keys and indices sit inline in one slot
/// array (linear probing, power-of-two capacity, rehash at half load), so a
/// lookup is one multiply and usually one cache line, and a new group costs
/// no node allocation. Used by the scan's GROUP BY on matrix attributes and
/// by PartialResult::MergeFrom.
class GroupTable {
 public:
  static constexpr std::uint32_t kInitialCapacity = 64;

  /// Empties the table, keeping its capacity. The first insert into a
  /// never-used table allocates kInitialCapacity slots.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Group index of `key`; an absent key gets index size() and sets
  /// *inserted.
  std::uint32_t FindOrInsert(std::uint64_t key, bool* inserted) {
    // Grow before probing, so the slot the probe ends on stays valid for
    // the insert.
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Home(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.index == kEmpty) {
        s.key = key;
        s.index = size_++;
        *inserted = true;
        return s.index;
      }
      if (s.key == key) {
        *inserted = false;
        return s.index;
      }
    }
  }

  std::uint32_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t index = kEmpty;
  };

  static int Log2(std::size_t n) {
    int b = 0;
    while ((std::size_t{1} << b) < n) ++b;
    return b;
  }

  // Fibonacci hashing: the top bits of key * 2^64/phi spread the small,
  // consecutive integer keys GROUP BY usually sees.
  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    const std::size_t capacity =
        slots_.empty() ? kInitialCapacity : slots_.size() * 2;
    std::vector<Slot> old(capacity, Slot{});
    old.swap(slots_);
    shift_ = 64 - Log2(capacity);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.index == kEmpty) continue;
      std::size_t i = Home(s.key);
      while (slots_[i].index != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  std::uint32_t size_ = 0;
};

}  // namespace aim

#endif  // AIM_RTA_GROUP_TABLE_H_
