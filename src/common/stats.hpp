// Lightweight statistics accumulators used by the simulator, the benches and
// the workload generators: counters, a streaming mean/variance accumulator
// (Welford) and a log-bucketed latency histogram with quantile queries.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rgb::common {

/// Streaming min/max/mean/variance over doubles (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const Accumulator& other);

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Histogram over non-negative values with geometric buckets.
///
/// Buckets grow by a fixed ratio so that relative error of quantile queries
/// is bounded by the growth factor (~5% with the default 1.1 ratio), which
/// is plenty for latency-shape comparisons.
class Histogram {
 public:
  /// `max_value` bounds the highest representable value; larger samples are
  /// clamped into the overflow bucket.
  explicit Histogram(double max_value = 1e12, double growth = 1.1);

  void add(double value);
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double p999() const { return quantile(0.999); }
  [[nodiscard]] double mean() const;
  /// Exact largest sample seen (0 when empty) — tracked outside the
  /// buckets, so it carries no bucketing error and survives overflow
  /// clamping (a sample beyond max_value still reports its true maximum).
  [[nodiscard]] double max() const { return max_; }

 private:
  [[nodiscard]] std::size_t bucket_for(double value) const;
  [[nodiscard]] double bucket_upper(std::size_t idx) const;

  double growth_;
  double log_growth_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// A named monotonically increasing counter. Increments are relaxed
/// atomics: protocol counters shared across shard windows (e.g. one
/// RgbMetrics for all NEs) are bumped from concurrent worker threads, and
/// integer sums commute — the total is deterministic even though the
/// interleaving is not. Reads are meaningful between windows.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void increment(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One exported field of a metric struct: its export name, the member that
/// holds it and a one-line description. A metric struct lists its fields
/// once, in a constexpr array of these beside the struct
/// (core::kRgbMetricFields, net::kNetMetricFields); the metric catalog and
/// every code path that walks the fields read that list.
template <typename Struct, typename Value>
struct MetricField {
  const char* name;
  Value Struct::*member;
  const char* description;
};

/// True when no two rows of `fields` name the same member.
template <typename Struct, typename Value, std::size_t N>
constexpr bool distinct_members(const MetricField<Struct, Value> (&fields)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (fields[i].member == fields[j].member) return false;
    }
  }
  return true;
}

}  // namespace rgb::common
