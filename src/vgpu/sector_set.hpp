// Flat open-addressing set of 64-bit sector ids: the shared L2 of a
// ConcurrentGroup (vgpu/device.hpp), probed once per DRAM-sector miss of
// every member kernel.
//
// One array of keys, linear probing, a multiplicative (Fibonacci) hash and
// a load factor of at most 3/4; the table doubles before it would exceed
// it. Only insert and size are needed — a group never erases — so there
// are no tombstones. The all-ones key marks an empty slot; that key itself
// is kept in a flag beside the table, so every 64-bit id is storable. The
// set answers insert and size exactly as std::unordered_set<std::uint64_t>
// does (tests/test_vgpu_edge.cpp replays seeded and adversarial sequences
// through both), so group metering is unchanged; it only drops the
// per-node allocation and rehash cost.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace acsr::vgpu {

class SectorSet {
 public:
  /// Odd multiplier of the Fibonacci hash (2^64 / golden ratio).
  static constexpr std::uint64_t kMultiplier = 0x9E3779B97F4A7C15ULL;

  /// Insert `key`; true when it was not present before.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      ++size_;
      return true;
    }
    if (slots_.empty()) grow();
    std::size_t i = probe(key);
    if (slots_[i] == key) return false;
    // A new key: keep the table at most 3/4 full.
    if (4 * (stored() + 1) > 3 * slots_.size()) {
      grow();
      i = probe(key);
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  std::size_t size() const { return size_; }
  /// Slots in the table (0 before the first insert); a power of two.
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 64;

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>((key * kMultiplier) >> shift_);
    while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }

  /// Keys held in the table proper (the all-ones key lives in the flag).
  std::size_t stored() const { return size_ - (has_empty_key_ ? 1 : 0); }

  void grow() {
    const std::size_t cap =
        slots_.empty() ? kMinCapacity : 2 * slots_.size();
    std::vector<std::uint64_t> old(cap, kEmpty);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(cap);
    for (const std::uint64_t key : old)
      if (key != kEmpty) slots_[probe(key)] = key;
  }

  std::vector<std::uint64_t> slots_;
  int shift_ = 64;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
};

}  // namespace acsr::vgpu
