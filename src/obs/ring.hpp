// The bounded ring behind both OpTracer record streams (flight events and
// causal spans), and the one merge that reads per-shard rings back as a
// single deterministic stream.
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

 private:
  std::vector<T> items_;
  std::size_t capacity_;
  std::size_t reserve_;
  std::size_t next_ = 0;  ///< overwrite cursor once full
  std::uint64_t recorded_ = 0;
};

/// Reads the `ring` of every stripe oldest-to-newest and merges them by
/// (time `at`, stripe index, record order). Concatenating the stripes in
/// index order and sorting stably by time alone yields exactly that order.
/// Each stripe is written only from its shard's windows, so the result is
/// a function of the logical shard count, never of the worker count.
template <typename T, typename Stripe>
[[nodiscard]] std::vector<T> merge_by_time(const std::vector<Stripe>& stripes,
                                           BoundedRing<T> Stripe::*ring) {
  std::vector<T> out;
  for (const Stripe& s : stripes) {
    const BoundedRing<T>& r = s.*ring;
    for (std::size_t i = 0; i < r.size(); ++i) out.push_back(r[i]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const T& lhs, const T& rhs) { return lhs.at < rhs.at; });
  return out;
}

}  // namespace rgb::obs
