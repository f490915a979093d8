// MetricsRegistry: a flat, insertion-ordered catalogue of named metrics —
// counters (pointers into live structs), computed gauges, dynamic families
// (the network's per-kind maps) and latency histograms — enumerable for
// deterministic JSON/CSV export. Exporters iterate the registry instead of
// hand-listing struct fields, so adding a metric is one registration line,
// not an edit in every writer.
//
// Naming scheme (see EXPERIMENTS.md "Observability"):
//   rgb.<counter>           protocol counters (core::RgbMetrics)
//   net.<counter>           network totals (net::Network::Metrics)
//   net.sent.kind<K>        per-message-kind sends, ordered by kind id
//   net.bytes.kind<K>       per-message-kind bytes, ordered by kind id
//   obs.view_changes        ring-shape transitions (OpTracer)
//   obs.lat.<instrument>    histograms: dissemination.<op-kind>,
//                           join_to_root, detect.member, detect.ne
//
// The registry stores raw pointers/closures over the trial's own metric
// objects: it must not outlive the RgbSystem that registered into it (in
// practice both live side by side inside ProtocolObs/RgbSystem).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace rgb::core {
struct RgbMetrics;
}
namespace rgb::net {
class Network;
}

namespace rgb::obs {

class OpTracer;

class MetricsRegistry {
 public:
  struct Sample {
    std::string name;
    std::uint64_t value = 0;
  };

  /// Histogram summary row: quantiles carry the bucket relative-error
  /// bound of common::Histogram; max is exact.
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double max = 0.0;
    double mean = 0.0;
  };

  /// Catalog row: what a metric is, independent of its current value.
  /// Families list their naming pattern (e.g. "net.sent.kind<K>").
  struct CatalogEntry {
    std::string name;
    const char* type = "counter";  ///< counter|gauge|family|histogram
    std::string description;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a live counter; the registry reads it at snapshot time.
  void add_counter(std::string name, const common::Counter* counter,
                   std::string description = {});
  /// Registers a plain uint64 location (the network metric fields).
  void add_value(std::string name, const std::uint64_t* value,
                 std::string description = {});
  /// Registers a computed scalar.
  void add_gauge(std::string name, std::function<std::uint64_t()> gauge,
                 std::string description = {});
  /// Registers a dynamic family: the producer returns fully-named samples
  /// (must be deterministically ordered — sort by key, not map order).
  /// `pattern` is the catalog name (e.g. "net.sent.kind<K>").
  void add_family(std::string pattern,
                  std::function<std::vector<Sample>()> family,
                  std::string description = {});
  /// Registers a live histogram.
  void add_histogram(std::string name, const common::Histogram* histogram,
                     std::string description = {});
  /// Registers a computed histogram (e.g. a merge of several live ones).
  void add_histogram(std::string name,
                     std::function<common::Histogram()> producer,
                     std::string description = {});

  /// All scalar metrics in registration order (families expanded inline).
  [[nodiscard]] std::vector<Sample> snapshot() const;
  /// All histogram summaries in registration order.
  [[nodiscard]] std::vector<HistogramSample> histograms() const;
  /// Scalar lookup by exact name (families included); nullopt if absent.
  [[nodiscard]] std::optional<std::uint64_t> value_of(
      std::string_view name) const;

  /// Registration-ordered catalog (scalars first, then histograms) — the
  /// self-describing index behind `rgb_exp metrics --catalog`.
  [[nodiscard]] std::vector<CatalogEntry> catalog() const;

  /// {"counters": {...}, "histograms": {...}} — key order = registration
  /// order, numbers printed with the repo-wide deterministic formatting.
  void write_json(std::ostream& os, int indent = 0) const;
  /// name,value rows, then histogram digest rows
  /// (name,count,p50,p90,p99,p999,max,mean).
  void write_csv(std::ostream& os) const;
  /// One aligned "name  type  description" line per catalog entry.
  void write_catalog(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;  ///< the family naming pattern for families
    std::function<std::uint64_t()> read;
    std::function<std::vector<Sample>()> family;
    const char* type = "counter";
    std::string description;
  };
  struct HistogramEntry {
    std::string name;
    std::function<common::Histogram()> produce;
    std::string description;
  };

  std::vector<Entry> entries_;
  std::vector<HistogramEntry> histograms_;
};

/// Registers every core::RgbMetrics counter under "rgb.<field>". The
/// definition site carries a static_assert pinning sizeof(RgbMetrics), so
/// adding a counter without registering it breaks the build here.
void register_rgb_metrics(MetricsRegistry& registry,
                          const core::RgbMetrics& metrics);

/// Registers net totals under "net.<field>" and the per-kind families.
void register_network_metrics(MetricsRegistry& registry,
                              const net::Network& network);

/// Registers the tracer's view-change counter, latency histograms and
/// handler profile: "obs.prof.handled.kind<K>" per-kind invocation counts
/// (non-zero kinds only) and "obs.prof.handled.total". Wall-clock
/// attribution is deliberately NOT registered — the registry surface
/// stays deterministic; wall numbers live only in the clearly separated
/// bench-JSON block.
void register_tracer(MetricsRegistry& registry, const OpTracer& tracer);

/// Satellite guard: the registry-enumerated export must agree with the
/// legacy hand-read fields while both exist. Checks every RgbMetrics
/// counter and the Network totals against `value_of`; returns false on any
/// missing name or value drift. Asserted (debug) in the bench export path
/// and exercised by tests/obs/registry_test.cpp.
[[nodiscard]] bool registry_parity_ok(const MetricsRegistry& registry,
                                      const core::RgbMetrics& metrics,
                                      const net::Network& network);

}  // namespace rgb::obs
