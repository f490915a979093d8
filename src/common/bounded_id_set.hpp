// A set of 64-bit ids that holds at most `cap` of them and forgets the
// oldest first (a forgotten id reads as new again): dedup memory for
// replayed protocol work that stays bounded however long a run lasts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>

namespace rgb::common {

class BoundedIdSet {
 public:
  explicit BoundedIdSet(std::size_t cap) : cap_(cap) {}

  /// Adds `id`; false when it is already held. Past the cap the oldest
  /// held id is forgotten.
  bool insert(std::uint64_t id) {
    if (!ids_.insert(id).second) return false;
    order_.push_back(id);
    if (order_.size() > cap_) {
      ids_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return ids_.count(id) != 0;
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  std::size_t cap_;
  std::unordered_set<std::uint64_t> ids_;
  std::deque<std::uint64_t> order_;  ///< insertion order, oldest first
};

}  // namespace rgb::common
