// Scale bench: the repo's deterministic scale and multi-group sweep.
//
// One trial builds an RGB hierarchy, joins N members (arrivals spaced in
// virtual time, round-robin over the APs), lets the protocol quiesce, then
// enables probing and measures a steady-state anti-entropy window. Every
// number it reports — events, kViewSync messages and bytes, convergence,
// latency digests, the tick series, the handler profile — is a pure
// function of the (seed, config) pair, byte-identical across hosts, runs
// and runner thread counts. It backs the registered `bench.scale`
// scenario, `rgb_exp bench` and `rgb_exp trace`. Host-dependent cost
// (elapsed time, memory) is measured by bench/suite, which rescales it, or
// from outside the process.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "obs/series.hpp"
#include "sim/time.hpp"

namespace rgb::exp {

struct ScaleConfig {
  int tiers = 2;      ///< ring tiers (h)
  int ring_size = 5;  ///< nodes per ring (r)
  std::uint64_t members = 1000;
  /// Groups the one hierarchy serves (RgbConfig::groups). Member guid g
  /// joins the one group 1 + g % groups, so `members` = G*M puts exactly M
  /// in each group.
  std::uint64_t groups = 1;
  /// Join-phase mode: per-op downward dissemination (false, the paper's
  /// protocol) vs kSnapshot bulk state transfer (true: NotifyChild is
  /// replaced by debounced framed MemberTable snapshots).
  bool snapshot_join = false;
  /// Virtual time between member arrivals.
  sim::Duration join_spacing = sim::usec(500);
  /// Reconciliation warm-up before the measured window, in probe periods
  /// (250 ms each): a large join surge leaves residual view divergence that
  /// the first anti-entropy ticks repair, so the measured window starts only
  /// after one full sweep of the hierarchy (this is what makes the measured
  /// window *steady* state rather than mop-up).
  int warmup_ticks = 10;
  /// Steady-state measurement window, in probe periods.
  int steady_ticks = 10;
  std::uint64_t seed = 0xBE7C4ULL;
};

/// Digest of one latency histogram (sim-time microseconds), exported into
/// the bench JSON. Quantiles inherit the histogram's geometric-bucket
/// relative-error bound (~5% at growth 1.1); `max` is exact.
struct LatencyStats {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Deterministic handler-profile digest of one trial: per-message-kind
/// delivery handler invocation counts (non-zero kinds only, ordered by
/// kind id).
struct ProfileStats {
  std::uint64_t handled_total = 0;
  std::vector<std::pair<unsigned, std::uint64_t>> handled;
};

struct ScaleStats {
  // Echo of the cell.
  std::uint64_t members = 0;
  std::uint64_t groups = 0;
  std::uint64_t ne_count = 0;
  bool snapshot_join = false;

  // Deterministic protocol metrics.
  std::uint64_t join_events = 0;    ///< events to build + converge the group
  std::uint64_t join_bytes = 0;     ///< encoded bytes sent over the join phase
  std::uint64_t join_snapshot_msgs = 0;   ///< kSnapshot transfers in the phase
  std::uint64_t join_snapshot_bytes = 0;  ///< kSnapshot bytes in the phase
  /// Post-drain per-NE view disagreement vs the expected membership,
  /// summed record-wise (RgbSystem::view_divergence) — measured after the
  /// join phase drains and *before* any anti-entropy warm-up, so it
  /// exposes exactly the dissemination residue the warm-up used to mask.
  std::uint64_t join_divergence = 0;
  std::uint64_t steady_events = 0;  ///< events over the steady window
  std::uint64_t viewsync_msgs = 0;  ///< kViewSync sends over the window
  std::uint64_t viewsync_bytes = 0; ///< kViewSync bytes over the window
  std::uint64_t total_bytes = 0;    ///< all bytes over the window
  bool converged = false;           ///< merged-view convergence
  /// Sum over groups of per-NE record disagreement vs the grouped expected
  /// membership (RgbSystem::group_view_divergence) at trial end. Must be 0
  /// at quiescence: a merged-view zero can mask a record parked in the
  /// wrong group, so this is the multi-group convergence gate.
  std::uint64_t group_divergence = 0;
  std::uint64_t groups_created = 0;   ///< rgb.groups_created at trial end
  std::uint64_t digests_packed = 0;   ///< rgb.digest_groups_packed total
  std::uint64_t group_fulls = 0;      ///< rgb.group_fulls_sent total
  std::uint64_t group_diffs = 0;      ///< rgb.group_diffs_sent total

  // Observability (deterministic): causal-latency digests from the op
  // tracer and the per-phase tick time-series from the SeriesSampler.
  LatencyStats dissemination_latency;  ///< op birth -> apply, member classes
  LatencyStats join_latency;           ///< join birth -> visible at tier 0
  std::uint64_t view_changes = 0;      ///< ring-shape transitions, whole trial
  /// Oscillation metric: ring-shape transitions and reconfiguration rounds
  /// confined to the measured steady window. A healthy steady state is 0/0;
  /// anything else is the protocol reconfiguring under no faults.
  std::uint64_t steady_view_changes = 0;
  std::uint64_t steady_repairs = 0;
  /// Sampled cumulative counters: 16 points over the join surge and one
  /// per probe tick over warmup + steady. Divergence is sampled in the
  /// warm-up alone: each sample is an O(NE*N) walk, and the warm-up is the
  /// phase whose repair it shows. Rates are first differences within a
  /// phase; the network counters reset at the steady-window start.
  std::vector<obs::SeriesPoint> series;
  std::uint64_t series_dropped = 0;
  /// Handler-profiler digest (whole trial); see ProfileStats.
  ProfileStats profile;
  /// Span-layer accounting; spans are recorded only by a trace trial
  /// (run_trace_trial), so both are zero elsewhere.
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;

  /// Steady kViewSync bytes per link per tick. Once converged, each steady
  /// frame is one link-tick (none is a reply), so this is bytes per frame.
  /// Flat in `groups` under kSummary packing; ~linear for unpacked
  /// per-group syncing.
  [[nodiscard]] double bytes_per_link_tick() const {
    return viewsync_msgs > 0 ? static_cast<double>(viewsync_bytes) /
                                   static_cast<double>(viewsync_msgs)
                             : 0.0;
  }
};

/// Runs one scale trial, causal spans off.
[[nodiscard]] ScaleStats run_scale_trial(const ScaleConfig& config);

/// Runs one scale trial with causal spans on and writes the Chrome
/// trace-event JSON export (Perfetto / chrome://tracing) of the trial's
/// span layer + flight ring to `trace_out`. The export is a pure function
/// of (config, seed). Backs `rgb_exp trace`.
[[nodiscard]] ScaleStats run_trace_trial(const ScaleConfig& config,
                                         std::ostream& trace_out);

/// Failure-detection micro-trial: a small hierarchy with heartbeating
/// MobileHost agents; a staggered batch goes silent and one AP crashes,
/// exercising both detection paths (silent-member sweep, token-retx ring
/// repair). Fully deterministic in `seed`.
struct DetectStats {
  std::uint64_t failed_members = 0;       ///< silent MH failures injected
  std::uint64_t crashed_nes = 0;          ///< NE crashes injected
  LatencyStats member_detection;          ///< silence/crash -> Member-Failure
  LatencyStats ne_detection;              ///< NE crash -> spliced from ring
  std::uint64_t view_changes = 0;
};

[[nodiscard]] DetectStats run_detect_trial(std::uint64_t seed = 0xDE7EC7ULL);

/// Oscillation A/B micro-trial: a small hierarchy under sustained member
/// churn and message loss with a deliberately starved token-retx budget —
/// the regime where every loss streak becomes a single-observer false
/// suspicion. One cell runs classic first-observation declaration
/// (`stability = false`), the other the multi-observer stability layer;
/// comparing `view_changes` across the two cells is the headline
/// flap-suppression claim (>= 10x reduction). Deterministic in `seed`.
struct OscillationStats {
  bool stability = false;
  sim::Duration window = 0;          ///< churn/loss window measured over
  std::uint64_t churn_events = 0;    ///< join/leave/fail stream injected
  std::uint64_t view_changes = 0;    ///< ring-shape transitions in window
  std::uint64_t repairs = 0;         ///< reconfiguration rounds in window
  std::uint64_t merges = 0;          ///< reform/merge rounds in window
  std::uint64_t alerts = 0;          ///< stability alerts raised
  std::uint64_t cuts = 0;            ///< batched cuts applied
  std::uint64_t suppressed_flaps = 0;  ///< alerts retracted on liveness
  std::uint64_t fallbacks = 0;       ///< stability-timeout fallbacks
  bool converged = false;            ///< after loss ends + settle
};

[[nodiscard]] OscillationStats run_oscillation_trial(
    bool stability, std::uint64_t seed = 0x05C111ULL);

/// One A/B cell aggregated over several deterministic seeds: counters are
/// summed, `converged` is the conjunction. A single seed is one trajectory
/// through the loss RNG, so any protocol byte-size change re-rolls its
/// exact counts; summing a few seeds gates the flap-suppression ratio on
/// the structural effect instead of per-trajectory luck.
[[nodiscard]] OscillationStats run_oscillation_cell(
    bool stability,
    const std::vector<std::uint64_t>& seeds = {0x05C111ULL, 0x05C112ULL,
                                               0x05C113ULL});

/// Which join modes a scale sweep runs.
struct SweepModes {
  bool dissemination = true;  ///< per-op downward dissemination join
  bool snapshot = false;      ///< kSnapshot bulk-join state transfer
};

/// The scale sweep's cells: `base` at each member count, members-major,
/// the dissemination join before the snapshot join.
[[nodiscard]] std::vector<ScaleConfig> scale_cells(
    const ScaleConfig& base, const std::vector<std::uint64_t>& member_counts,
    const SweepModes& modes);

/// The multi-group serving cells: G groups x M members multiplexed
/// over ONE hierarchy, one cell per entry of `group_counts`, each `base`
/// with `groups` = G and `members` = G*M, where M is `base.members`. The
/// headline is bytes_per_link_tick() as a function of G: the kSummary
/// combined-digest tick keeps it O(1), so the curve is flat where G
/// independent single-group hierarchies would pay G full frames.
[[nodiscard]] std::vector<ScaleConfig> multigroup_cells(
    const ScaleConfig& base, const std::vector<std::uint64_t>& group_counts);

/// Runs every cell in order, logging one summary line per cell to `log`.
/// Backs `rgb_exp bench`, scale and multi-group cells alike.
[[nodiscard]] std::vector<ScaleStats> run_sweep(
    const std::vector<ScaleConfig>& cells, std::ostream& log);

/// The bench's pass rule: every cell converged with zero per-group
/// divergence. A cell that fails it measured a system still reconciling
/// (or a record parked in the wrong group), so its numbers are not
/// comparable across PRs and `rgb_exp bench` exits non-zero.
[[nodiscard]] bool all_clean(const std::vector<ScaleStats>& stats);

/// Writes the bench JSON artifact: the sweep configuration `base` shares
/// with every cell, then one record per stats entry. `detect` (when
/// non-null) adds the failure-detection latency block; `oscillation` (when
/// non-null) adds the stability A/B flap-suppression cells.
void write_bench_json(const ScaleConfig& base,
                      const std::vector<ScaleStats>& stats, std::ostream& os,
                      const DetectStats* detect = nullptr,
                      const std::vector<OscillationStats>* oscillation =
                          nullptr);

/// Writes one cell's tick series as CSV (`rgb_exp bench --series`):
/// header + one row per point, divergence empty where not sampled.
void write_series_csv(const ScaleStats& stats, std::ostream& os);

}  // namespace rgb::exp
