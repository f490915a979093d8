// A set of 64-bit ids that holds at most `cap` of them and forgets the
// oldest first (a forgotten id reads as new again): dedup memory for
// replayed protocol work that stays bounded however long a run lasts.
//
// Layout. Two flat arrays, no per-id allocation:
//  * a FIFO ring of the held ids, oldest at `head_` once full. It grows
//    with use up to `cap` ids (8 B each).
//  * an open-addressing index of 64-id blocks. An entry is a key
//    `id >> 6` plus a presence mask with bit `id & 63` set for each held
//    id of the block (16 B). A zero mask marks a free slot, so every key
//    is usable. Placement is Fibonacci hashing over a power-of-two table
//    with linear probing; a block whose mask empties is removed by
//    backward-shift deletion (no tombstones); the table doubles when more
//    than half its slots are used.
//
// Ids born as `origin << 24 | counter` (rgb::core::origin_scoped_id)
// cluster: one origin's live ids share a few blocks, so an insert and the
// eviction it causes are two probes into a table of a few KB.
//
// Worst-case memory: ids that share no block cost one block each, so the
// index holds at most `cap` blocks in at most 2·bit_ceil(cap) slots of
// 16 B (2·cap × 16 B for a power-of-two cap; never fewer than 8 slots),
// plus the ring's cap × 8 B.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rgb::common {

class BoundedIdSet {
 public:
  explicit BoundedIdSet(std::size_t cap) : cap_(cap) {}

  /// Adds `id`; false when it is already held. Past the cap the oldest
  /// held id is forgotten.
  bool insert(std::uint64_t id) {
    if (cap_ == 0) return true;  // holds nothing: every id reads as new
    if (slots_.empty()) rehash(kMinSlots);
    Block& block = slots_[probe(id >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((block.mask & bit) != 0) return false;
    if (block.mask == 0) {
      block.key = id >> 6;
      ++blocks_;
    }
    block.mask |= bit;

    if (ring_.size() < cap_) {
      // Grow the ring by doubling, but never past the cap.
      if (ring_.size() == ring_.capacity()) {
        ring_.reserve(std::min(cap_, std::max<std::size_t>(16, 2 * size())));
      }
      ring_.push_back(id);
    } else {
      forget(ring_[head_]);
      ring_[head_] = id;
      head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    }
    if (2 * blocks_ > slots_.size()) rehash(2 * slots_.size());
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    if (slots_.empty()) return false;
    const Block& block = slots_[probe(id >> 6)];
    return ((block.mask >> (id & 63)) & 1) != 0;
  }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }

 private:
  struct Block {
    std::uint64_t key = 0;   ///< id >> 6
    std::uint64_t mask = 0;  ///< bit i: id (key << 6 | i) is held; 0 = free
  };

  static constexpr std::size_t kMinSlots = 8;

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The slot holding block `key`, else the free slot that ends its probe.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    const std::size_t last = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i].mask != 0 && slots_[i].key != key) i = (i + 1) & last;
    return i;
  }

  /// Clears held `id`'s bit; an emptied block leaves the index, and the
  /// blocks probing past its slot shift back so no probe chain breaks.
  void forget(std::uint64_t id) {
    std::size_t hole = probe(id >> 6);
    Block& block = slots_[hole];
    block.mask &= ~(std::uint64_t{1} << (id & 63));
    if (block.mask != 0) return;
    --blocks_;
    const std::size_t last = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & last; slots_[j].mask != 0;
         j = (j + 1) & last) {
      // Slot j's block may fill the hole when the hole lies on its probe
      // path, i.e. no further from its home than j is.
      if (((j - home(slots_[j].key)) & last) >= ((j - hole) & last)) {
        slots_[hole] = slots_[j];
        slots_[j].mask = 0;
        hole = j;
      }
    }
  }

  void rehash(std::size_t slot_count) {
    std::vector<Block> old = std::move(slots_);
    slots_.assign(slot_count, Block{});
    shift_ = 64 - std::countr_zero(slot_count);
    for (const Block& block : old) {
      if (block.mask != 0) slots_[probe(block.key)] = block;
    }
  }

  std::size_t cap_;
  std::vector<std::uint64_t> ring_;  ///< held ids, FIFO from head_
  std::size_t head_ = 0;             ///< oldest id once the ring is full
  std::vector<Block> slots_;         ///< block index; power-of-two size
  std::size_t blocks_ = 0;           ///< slots in use
  int shift_ = 64;                   ///< 64 - log2(slots_.size())
};

}  // namespace rgb::common
