// Flat open-addressing hash map from 64-bit keys to 32-bit values.
//
// One slot array, linear probing, no node per key and no erase: the shape
// of a tally that one task fills and then drops whole, such as an attack
// day's distinct (server, victim) keys (DESIGN.md §3d). The array is a power
// of two that doubles before it passes half full. Every 64-bit value is a
// valid key: the bit pattern that marks an empty slot is kept, when it is
// inserted as a key, in a side slot of its own.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gorilla::util {

class FlatMap64 {
 public:
  /// Slot count of the first allocation.
  static constexpr std::size_t kMinCapacity = 16;

  /// Fibonacci hash: a key's home slot in a 2^b-slot array is the top b
  /// bits of the product, which every key bit reaches.
  [[nodiscard]] static constexpr std::uint64_t hash(std::uint64_t key) noexcept {
    return key * 0x9e3779b97f4a7c15ULL;
  }

  /// The value of `key`, inserted as 0 when absent; `second` is true when
  /// this call inserted it. The reference lives until the next insert.
  std::pair<std::uint32_t&, bool> try_emplace(std::uint64_t key) {
    if (key == kEmpty) {
      const bool inserted = !has_empty_key_;
      has_empty_key_ = true;
      size_ += inserted ? 1 : 0;
      return {empty_key_value_, inserted};
    }
    if (2 * (slots_size_ + 1) > slots_.size()) {
      grow(std::max(kMinCapacity, 2 * slots_.size()));
    }
    std::size_t i = home(key);
    while (slots_[i].key != kEmpty) {
      if (slots_[i].key == key) return {slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    ++slots_size_;
    ++size_;
    return {slots_[i].value, true};
  }

  /// The value of `key`, or nullptr when absent.
  [[nodiscard]] const std::uint32_t* find(std::uint64_t key) const noexcept {
    if (key == kEmpty) return has_empty_key_ ? &empty_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  /// Keys held, the empty-slot pattern included.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slots in the array: 0 before the first insert, else a power of two.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint32_t value = 0;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(hash(key) >> shift_);
  }

  /// Moves every key into a fresh array of `slots` (a power of two).
  void grow(std::size_t slots) {
    std::vector<Slot> old(slots);
    old.swap(slots_);
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t slots_size_ = 0;  ///< keys in slots_
  std::size_t size_ = 0;        ///< keys in slots_ and the side slot
  bool has_empty_key_ = false;
  std::uint32_t empty_key_value_ = 0;
};

}  // namespace gorilla::util
