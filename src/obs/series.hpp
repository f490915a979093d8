// Tick time-series sampler: turns the flat end-of-trial counters into
// per-trial time series by probing a caller-supplied closure at a fixed
// sim-time cadence. The bench hooks it into sim::Simulator around each
// phase (join surge, warmup, steady window) and exports the points into
// the `rgb_exp bench --json` cell record and `--series`.
//
// Design constraint: the simulator's run() drains the queue, so a
// self-rescheduling sampler would keep the run alive forever. arm()
// therefore pre-schedules a FIXED, finite number of sample events — the
// phase ends exactly as before, the samples ride along.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rgb::obs {

/// One sampled point. Scalars are cumulative (rates are first differences
/// over `at`), so the series stays exact under integer arithmetic.
struct SeriesPoint {
  sim::Time at = 0;
  std::uint64_t events = 0;            ///< simulator events executed
  std::uint64_t msgs_sent = 0;         ///< network messages sent
  std::uint64_t bytes_sent = 0;        ///< network bytes sent
  std::uint64_t ops_disseminated = 0;  ///< token-applied ops, all NEs
  std::uint64_t reconcile_rounds = 0;  ///< post-heal claim exchanges
  std::uint64_t view_changes = 0;      ///< ring-shape transitions
  std::uint64_t repairs = 0;           ///< reconfiguration rounds (splices)
  /// Global view divergence at this point; -1 = not sampled (each sample
  /// is an O(NE*N) walk, so only warm-up points take one).
  std::int64_t divergence = -1;
};

class SeriesSampler {
 public:
  /// Fills one point; `with_divergence` says whether the expensive
  /// divergence walk should run for this sample.
  using Probe = std::function<SeriesPoint(sim::Time at, bool with_divergence)>;

  /// Hard cap on retained points; arms beyond it are dropped (counted).
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit SeriesSampler(Probe probe,
                         std::size_t capacity = kDefaultCapacity);

  /// Pre-schedules `count` samples at t0+period, t0+2*period, ... — a
  /// fixed batch, never self-rescheduling (see header comment).
  void arm(sim::Simulator& simulator, sim::Time t0, sim::Duration period,
           int count, bool with_divergence);

  [[nodiscard]] const std::vector<SeriesPoint>& points() const {
    return points_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  void sample(sim::Time at, bool with_divergence);

  Probe probe_;
  std::size_t capacity_;
  std::vector<SeriesPoint> points_;
  std::uint64_t dropped_ = 0;
};

}  // namespace rgb::obs
