// Multi-threaded Monte-Carlo trial runner.
//
// A scenario's (cell, trial) grid is embarrassingly parallel: every trial
// owns its Simulator / Network / RngStream, seeded only from
// (base_seed, scenario id, cell, trial). The runner therefore executes
// trials on a pool of worker threads pulling from an atomic work index,
// stores each raw trial output at its precomputed slot, and folds the
// results into per-cell summaries *sequentially in trial order* afterwards.
// That final sequential fold is what makes the aggregate bit-identical
// regardless of worker count: floating-point accumulation order never
// depends on the interleaving of threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace rgb::exp {

struct RunnerOptions {
  /// Worker threads; 0 means the hardware concurrency.
  unsigned threads = 0;
  /// Master seed the per-trial seeds derive from.
  std::uint64_t base_seed = 0xE5EEDULL;
  /// Overrides Scenario::trials_per_cell when non-zero (quick smoke runs,
  /// deeper sweeps).
  std::uint64_t trials_override = 0;
  /// When set, every TrialContext carries this observer and cooperative
  /// trials report their simulated system to it (--check mode). Must be
  /// thread-safe; must outlive run().
  TrialObserver* observer = nullptr;
};

/// Aggregate of one metric over the trials of one cell. `std_error` is the
/// standard error of the mean (stddev / sqrt(n)); quantiles come from the
/// log-bucketed common::Histogram (~5% relative error) and are only
/// meaningful for non-negative metrics.
struct MetricSummary {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0.0;
  double std_error = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

struct CellResult {
  ParamSet params;
  std::uint64_t trials = 0;
  std::vector<MetricSummary> metrics;  ///< one per scenario metric, in order

  /// Summary of the metric named `name`; throws std::out_of_range when the
  /// scenario declares no such metric. Prefer this over positional access —
  /// reordering a scenario's metric list then fails loudly instead of
  /// silently swapping columns.
  [[nodiscard]] const MetricSummary& metric(const std::string& name) const;
};

struct RunResult {
  std::string scenario_id;
  std::uint64_t base_seed = 0;
  std::uint64_t total_trials = 0;
  std::vector<CellResult> cells;  ///< scenario cell order

  // Informational only — excluded from every export so aggregate output is
  // byte-identical across thread counts.
  unsigned threads_used = 1;
  double wall_ms = 0.0;
};

/// Executes scenarios per RunnerOptions. Stateless apart from the options;
/// safe to reuse across scenarios.
class TrialRunner {
 public:
  explicit TrialRunner(RunnerOptions options = {});

  /// Runs every (cell, trial) of `scenario` and aggregates. Throws
  /// std::runtime_error when a trial returns the wrong metric arity;
  /// exceptions thrown by trial functions are rethrown on the caller
  /// thread after the pool joins.
  [[nodiscard]] RunResult run(const Scenario& scenario) const;

  [[nodiscard]] const RunnerOptions& options() const { return options_; }
  /// The worker count `run` will actually use.
  [[nodiscard]] unsigned resolved_threads() const;

 private:
  RunnerOptions options_;
};

}  // namespace rgb::exp
