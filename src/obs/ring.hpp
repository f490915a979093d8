// The bounded ring behind both OpTracer record streams (flight events and
// causal spans).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rgb::obs {

/// Fixed-capacity ring: once full, each push overwrites the oldest entry.
/// `dropped()` says how many were lost, so every reader can be honest
/// about truncation.
template <typename T>
class BoundedRing {
 public:
  /// `reserve` entries are allocated by the first push, the rest on
  /// demand, so a ring that never records never allocates.
  BoundedRing(std::size_t capacity, std::size_t reserve)
      : capacity_(capacity == 0 ? 1 : capacity),
        reserve_(std::min(reserve, capacity_)) {}

  void push(const T& item) {
    if (items_.size() < capacity_) {
      if (items_.empty()) items_.reserve(reserve_);
      items_.push_back(item);
    } else {
      items_[next_] = item;
      next_ = (next_ + 1) % capacity_;
    }
    ++recorded_;
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  /// Lifetime pushes, overwritten ones included.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const { return recorded_ - size(); }

  /// The i-th oldest retained entry (once wrapped, `next_` is the oldest).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return items_[(next_ + i) % items_.size()];
  }

  /// Every retained entry, oldest to newest.
  [[nodiscard]] std::vector<T> items() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  std::vector<T> items_;
  std::size_t capacity_;
  std::size_t reserve_;
  std::size_t next_ = 0;  ///< overwrite cursor once full
  std::uint64_t recorded_ = 0;
};

}  // namespace rgb::obs
