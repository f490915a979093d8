// Link latency models for the simulated mobile Internet.
//
// The 4-tier architecture motivates different delay regimes per tier pair:
// wireless last hop (MH<->AP), intra-AS wired (AP<->AG), and inter-AS WAN
// (AG<->BR, BR<->BR). Each link is configured with one of these value-type
// models; sampling draws from the owning network's RNG stream.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "sim/time.hpp"

namespace rgb::net {

/// Value-type latency distribution: fixed, uniform or shifted-exponential.
class LatencyModel {
 public:
  /// Constant delay.
  static LatencyModel fixed(sim::Duration d);

  /// Uniform in [lo, hi].
  static LatencyModel uniform(sim::Duration lo, sim::Duration hi);

  /// min + Exp(mean). Long-tailed, a reasonable stand-in for WAN paths where
  /// no latency bound can be guaranteed (Section 1 of the paper).
  static LatencyModel shifted_exponential(sim::Duration min,
                                          sim::Duration mean_extra);

  /// Draws one delay sample.
  [[nodiscard]] sim::Duration sample(common::RngStream& rng) const;

 private:
  enum class Kind : std::uint8_t { kFixed, kUniform, kShiftedExp };

  LatencyModel(Kind kind, sim::Duration a, sim::Duration b)
      : kind_(kind), a_(a), b_(b) {}

  Kind kind_;
  sim::Duration a_;  // fixed value / lo / min
  sim::Duration b_;  // unused / hi / mean of the exponential part
};

}  // namespace rgb::net
