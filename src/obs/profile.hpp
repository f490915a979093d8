// Deterministic handler profiler: per-message-kind delivery counts riding
// the same network hooks as the span layer, striped per shard and merged
// in shard order — a pure function of the logical shard count, enumerable
// through the metrics registry under `obs.prof.*`. Wall-clock time per
// handler is measured from outside the library (bench/suite), not here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace rgb::obs {

class HandlerProfiler {
 public:
  /// Fixed per-kind slot count (message kinds top out at 41 today); kinds
  /// at or beyond the cap share the last slot so counting never allocates.
  static constexpr std::size_t kMaxKinds = 64;

  using PerKind = std::array<std::uint64_t, kMaxKinds>;

  /// One stripe per shard, written only from that shard's windows. Call
  /// before any traffic.
  void configure_shards(std::uint32_t count);

  /// A delivery handler for `kind` ran to completion.
  void on_handled(net::MessageKind kind);

  /// Deterministic reads: stripes merged in shard order.
  [[nodiscard]] PerKind handled_per_kind() const;
  [[nodiscard]] std::uint64_t handled_total() const;

  void clear();

  [[nodiscard]] static std::size_t slot_of(net::MessageKind kind) {
    return kind < kMaxKinds ? kind : kMaxKinds - 1;
  }

 private:
  struct Stripe {
    PerKind handled{};
  };

  [[nodiscard]] Stripe& stripe();

  std::vector<Stripe> stripes_{1};
};

}  // namespace rgb::obs
