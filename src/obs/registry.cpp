#include "obs/registry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <utility>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "rgb/metrics.hpp"

namespace rgb::obs {

namespace {

/// Shortest round-tripping decimal (same algorithm as exp::format_double;
/// duplicated rather than imported so obs stays below the exp layer).
std::string format_double(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace

void MetricsRegistry::add_counter(std::string name,
                                  const common::Counter* counter,
                                  std::string description) {
  entries_.push_back({std::move(name),
                      [counter]() { return counter->value(); },
                      nullptr,
                      "counter",
                      std::move(description)});
}

void MetricsRegistry::add_value(std::string name, const std::uint64_t* value,
                                std::string description) {
  entries_.push_back({std::move(name),
                      [value]() { return *value; },
                      nullptr,
                      "counter",
                      std::move(description)});
}

void MetricsRegistry::add_gauge(std::string name,
                                std::function<std::uint64_t()> gauge,
                                std::string description) {
  entries_.push_back({std::move(name), std::move(gauge), nullptr, "gauge",
                      std::move(description)});
}

void MetricsRegistry::add_family(std::string pattern,
                                 std::function<std::vector<Sample>()> family,
                                 std::string description) {
  entries_.push_back({std::move(pattern), nullptr, std::move(family),
                      "family", std::move(description)});
}

void MetricsRegistry::add_histogram(std::string name,
                                    const common::Histogram* histogram,
                                    std::string description) {
  histograms_.push_back({std::move(name),
                         [histogram]() { return *histogram; },
                         std::move(description)});
}

void MetricsRegistry::add_histogram(std::string name,
                                    std::function<common::Histogram()> producer,
                                    std::string description) {
  histograms_.push_back(
      {std::move(name), std::move(producer), std::move(description)});
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (entry.family) {
      for (Sample& sample : entry.family()) out.push_back(std::move(sample));
    } else {
      out.push_back({entry.name, entry.read()});
    }
  }
  return out;
}

std::vector<MetricsRegistry::HistogramSample> MetricsRegistry::histograms()
    const {
  std::vector<HistogramSample> out;
  out.reserve(histograms_.size());
  for (const HistogramEntry& entry : histograms_) {
    const common::Histogram h = entry.produce();
    out.push_back({entry.name, h.count(), h.p50(), h.p90(), h.p99(),
                   h.p999(), h.max(), h.mean()});
  }
  return out;
}

std::vector<MetricsRegistry::CatalogEntry> MetricsRegistry::catalog() const {
  std::vector<CatalogEntry> out;
  out.reserve(entries_.size() + histograms_.size());
  for (const Entry& entry : entries_) {
    out.push_back({entry.name, entry.type, entry.description});
  }
  for (const HistogramEntry& entry : histograms_) {
    out.push_back({entry.name, "histogram", entry.description});
  }
  return out;
}

std::optional<std::uint64_t> MetricsRegistry::value_of(
    std::string_view name) const {
  for (const Sample& sample : snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return std::nullopt;
}

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\n" << pad << "  \"counters\": {";
  bool first = true;
  for (const Sample& sample : snapshot()) {
    os << (first ? "\n" : ",\n") << pad << "    \"" << sample.name
       << "\": " << sample.value;
    first = false;
  }
  os << '\n' << pad << "  },\n" << pad << "  \"histograms\": {";
  first = true;
  for (const HistogramSample& h : histograms()) {
    os << (first ? "\n" : ",\n") << pad << "    \"" << h.name
       << "\": {\"count\": " << h.count << ", \"p50\": " << format_double(h.p50)
       << ", \"p90\": " << format_double(h.p90)
       << ", \"p99\": " << format_double(h.p99)
       << ", \"p999\": " << format_double(h.p999)
       << ", \"max\": " << format_double(h.max)
       << ", \"mean\": " << format_double(h.mean) << '}';
    first = false;
  }
  os << '\n' << pad << "  }\n" << pad << "}\n";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "name,value\n";
  for (const Sample& sample : snapshot()) {
    os << sample.name << ',' << sample.value << '\n';
  }
  os << "name,count,p50,p90,p99,p999,max,mean\n";
  for (const HistogramSample& h : histograms()) {
    os << h.name << ',' << h.count << ',' << format_double(h.p50) << ','
       << format_double(h.p90) << ',' << format_double(h.p99) << ','
       << format_double(h.p999) << ',' << format_double(h.max) << ','
       << format_double(h.mean) << '\n';
  }
}

void MetricsRegistry::write_catalog(std::ostream& os) const {
  const std::vector<CatalogEntry> rows = catalog();
  std::size_t name_width = 4;
  for (const CatalogEntry& row : rows) {
    name_width = std::max(name_width, row.name.size());
  }
  for (const CatalogEntry& row : rows) {
    os << row.name << std::string(name_width - row.name.size() + 2, ' ')
       << row.type << std::string(11 - std::strlen(row.type), ' ')
       << row.description << '\n';
  }
}

// One registration line per counter; the static_assert pins the struct so
// a new RgbMetrics field cannot ship without a line here (and a parity
// entry below).
static_assert(sizeof(core::RgbMetrics) == 33 * sizeof(common::Counter),
              "RgbMetrics changed: update register_rgb_metrics and "
              "registry_parity_ok in obs/registry.cpp");

void register_rgb_metrics(MetricsRegistry& registry,
                          const core::RgbMetrics& m) {
  registry.add_counter("rgb.rounds_started", &m.rounds_started,
                       "token rounds started (token granted and launched)");
  registry.add_counter("rgb.rounds_completed", &m.rounds_completed,
                       "token rounds that returned to the holder");
  registry.add_counter("rgb.empty_probe_rounds", &m.empty_probe_rounds,
                       "rounds carrying zero ops (liveness probes)");
  registry.add_counter("rgb.ops_disseminated", &m.ops_disseminated,
                       "membership ops applied to a ring member table");
  registry.add_counter("rgb.ops_aggregated", &m.ops_aggregated,
                       "ops collapsed by MQ aggregation before circulation");
  registry.add_counter("rgb.token_retransmits", &m.token_retransmits,
                       "token hops re-sent after a missing pass-ack");
  registry.add_counter("rgb.repairs", &m.repairs,
                       "ring splices around a faulty member");
  registry.add_counter("rgb.leader_failovers", &m.leader_failovers,
                       "leadership transfers after a leader failure");
  registry.add_counter("rgb.notifications_sent", &m.notifications_sent,
                       "inter-ring notification messages sent");
  registry.add_counter("rgb.notify_retransmits", &m.notify_retransmits,
                       "notifications re-sent after a missing holder-ack");
  registry.add_counter("rgb.holder_acks", &m.holder_acks,
                       "holder acknowledgements sent for carried notifies");
  registry.add_counter("rgb.merges", &m.merges,
                       "ring fragments absorbed after a partition heals");
  registry.add_counter("rgb.ne_joins", &m.ne_joins,
                       "network entities admitted into a ring");
  registry.add_counter("rgb.ne_leaves", &m.ne_leaves,
                       "network entities departing a ring voluntarily");
  registry.add_counter("rgb.snapshots_sent", &m.snapshots_sent,
                       "full-state snapshots sent to lagging peers");
  registry.add_counter("rgb.snapshots_applied", &m.snapshots_applied,
                       "snapshots decoded and imported");
  registry.add_counter("rgb.snapshot_decode_errors", &m.snapshot_decode_errors,
                       "snapshots rejected by wire decoding");
  registry.add_counter("rgb.snapshot_retransmits", &m.snapshot_retransmits,
                       "snapshots re-sent after a missing ack");
  registry.add_counter("rgb.snapshot_push_give_ups", &m.snapshot_push_give_ups,
                       "snapshot pushes abandoned after retry exhaustion");
  registry.add_counter("rgb.reconcile_rounds", &m.reconcile_rounds,
                       "anti-entropy reconcile rounds initiated");
  registry.add_counter("rgb.reconcile_replies", &m.reconcile_replies,
                       "reconcile replies processed");
  registry.add_counter("rgb.reconcile_retransmits", &m.reconcile_retransmits,
                       "reconcile claims re-sent after a missing ack");
  registry.add_counter("rgb.reconcile_give_ups", &m.reconcile_give_ups,
                       "reconcile exchanges abandoned after retries");
  registry.add_counter("rgb.reconcile_reanchors", &m.reconcile_reanchors,
                       "member records re-anchored by reconciliation");
  registry.add_counter("rgb.stability_alerts", &m.stability_alerts,
                       "multi-observer failure alerts raised");
  registry.add_counter("rgb.stability_cuts", &m.stability_cuts,
                       "correlated-failure cuts applied by the aggregator");
  registry.add_counter("rgb.stability_batched_failures",
                       &m.stability_batched_failures,
                       "failures batched into a single cut");
  registry.add_counter("rgb.stability_suppressed_flaps",
                       &m.stability_suppressed_flaps,
                       "alerts cancelled by observed liveness");
  registry.add_counter("rgb.stability_timeout_fallbacks",
                       &m.stability_timeout_fallbacks,
                       "cuts forced by aggregation timeout");
  registry.add_counter("rgb.digest_groups_packed", &m.digest_groups_packed,
                       "per-group digests packed into kDigest sync frames");
  registry.add_counter("rgb.group_fulls_sent", &m.group_fulls_sent,
                       "groups shipped in scoped kFull sync replies");
  registry.add_counter("rgb.group_diffs_sent", &m.group_diffs_sent,
                       "groups shipped in scoped kDiff sync replies");
  registry.add_counter("rgb.groups_created", &m.groups_created,
                       "group states instantiated in NE directories");
}

namespace {

/// Expands a per-kind map into "prefix<kind>" samples ordered by kind id
/// (unordered_map iteration order would leak hash-table layout into the
/// export and break cross-run byte-identity).
std::vector<MetricsRegistry::Sample> kind_family(
    const std::string& prefix,
    const std::unordered_map<net::MessageKind, std::uint64_t>& per_kind) {
  std::vector<std::pair<net::MessageKind, std::uint64_t>> sorted{
      per_kind.begin(), per_kind.end()};
  std::sort(sorted.begin(), sorted.end());
  std::vector<MetricsRegistry::Sample> out;
  out.reserve(sorted.size());
  for (const auto& [kind, value] : sorted) {
    out.push_back({prefix + std::to_string(kind), value});
  }
  return out;
}

}  // namespace

void register_network_metrics(MetricsRegistry& registry,
                              const net::Network& network) {
  // Gauges, not field pointers: a sharded network merges its per-shard
  // stripes on each metrics() call, so every read must go through it.
  const net::Network* n = &network;
  registry.add_gauge("net.sent", [n] { return n->metrics().sent; },
                     "messages admitted into the network");
  registry.add_gauge("net.delivered", [n] { return n->metrics().delivered; },
                     "messages delivered to an endpoint");
  registry.add_gauge("net.dropped_loss",
                     [n] { return n->metrics().dropped_loss; },
                     "messages dropped by the loss model");
  registry.add_gauge("net.dropped_crash",
                     [n] { return n->metrics().dropped_crash; },
                     "messages dropped at a crashed destination");
  registry.add_gauge("net.dropped_src_crash",
                     [n] { return n->metrics().dropped_src_crash; },
                     "sends refused because the source had crashed");
  registry.add_gauge("net.dropped_partition",
                     [n] { return n->metrics().dropped_partition; },
                     "messages dropped by an active partition");
  registry.add_gauge("net.dropped_unattached",
                     [n] { return n->metrics().dropped_unattached; },
                     "messages to endpoints never attached");
  registry.add_gauge("net.bytes_sent", [n] { return n->metrics().bytes_sent; },
                     "total payload bytes admitted");
  registry.add_family(
      "net.sent.kind<K>",
      [n]() { return kind_family("net.sent.kind", n->metrics().sent_per_kind); },
      "per-message-kind send counts, ordered by kind id");
  registry.add_family(
      "net.bytes.kind<K>",
      [n]() {
        return kind_family("net.bytes.kind", n->metrics().bytes_per_kind);
      },
      "per-message-kind payload bytes, ordered by kind id");
}

void register_tracer(MetricsRegistry& registry, const OpTracer& tracer) {
  registry.add_counter("obs.view_changes", &tracer.view_changes(),
                       "ring-shape transitions (repair/failover/merge/...)");
  static constexpr std::array<const char*, kOpKindCount> kKindSlugs = {
      "member_join", "member_leave",   "member_handoff", "member_fail",
      "ne_join",     "ne_leave",       "ne_fail"};
  // Producers, not histogram pointers: a sharded tracer merges its stripes
  // on each accessor call, so the registry must re-read through it.
  const OpTracer* t = &tracer;
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    registry.add_histogram(
        std::string{"obs.lat.dissemination."} + kKindSlugs[i],
        [t, i] { return t->dissemination(static_cast<core::OpKind>(i)); },
        std::string{"birth-to-apply latency (us) for "} + kKindSlugs[i] +
            " ops");
  }
  registry.add_histogram(
      "obs.lat.join_to_root", [t] { return t->join_latency(); },
      "member-join birth to first root-tier apply (us)");
  registry.add_histogram(
      "obs.lat.detect.member", [t] { return t->member_detection(); },
      "silent-member failure detection latency (us)");
  registry.add_histogram(
      "obs.lat.detect.ne", [t] { return t->ne_detection(); },
      "crashed-NE detection latency (us)");
  registry.add_gauge("obs.prof.handled.total",
                     [t] { return t->handled_total(); },
                     "delivery handler invocations, all message kinds");
  registry.add_family(
      "obs.prof.handled.kind<K>",
      [t]() {
        const OpTracer::HandledPerKind handled = t->handled_per_kind();
        std::vector<MetricsRegistry::Sample> out;
        for (std::size_t k = 0; k < handled.size(); ++k) {
          if (handled[k] == 0) continue;
          out.push_back({"obs.prof.handled.kind" + std::to_string(k),
                         handled[k]});
        }
        return out;
      },
      "per-message-kind handler invocation counts (non-zero kinds)");
}

bool registry_parity_ok(const MetricsRegistry& registry,
                        const core::RgbMetrics& metrics,
                        const net::Network& network) {
  const auto matches = [&registry](const char* name, std::uint64_t legacy) {
    const std::optional<std::uint64_t> value = registry.value_of(name);
    return value.has_value() && *value == legacy;
  };
  const net::Network::Metrics& n = network.metrics();
  return matches("rgb.rounds_started", metrics.rounds_started.value()) &&
         matches("rgb.rounds_completed", metrics.rounds_completed.value()) &&
         matches("rgb.empty_probe_rounds",
                 metrics.empty_probe_rounds.value()) &&
         matches("rgb.ops_disseminated", metrics.ops_disseminated.value()) &&
         matches("rgb.ops_aggregated", metrics.ops_aggregated.value()) &&
         matches("rgb.token_retransmits",
                 metrics.token_retransmits.value()) &&
         matches("rgb.repairs", metrics.repairs.value()) &&
         matches("rgb.leader_failovers", metrics.leader_failovers.value()) &&
         matches("rgb.notifications_sent",
                 metrics.notifications_sent.value()) &&
         matches("rgb.notify_retransmits",
                 metrics.notify_retransmits.value()) &&
         matches("rgb.holder_acks", metrics.holder_acks.value()) &&
         matches("rgb.merges", metrics.merges.value()) &&
         matches("rgb.ne_joins", metrics.ne_joins.value()) &&
         matches("rgb.ne_leaves", metrics.ne_leaves.value()) &&
         matches("rgb.snapshots_sent", metrics.snapshots_sent.value()) &&
         matches("rgb.snapshots_applied",
                 metrics.snapshots_applied.value()) &&
         matches("rgb.snapshot_decode_errors",
                 metrics.snapshot_decode_errors.value()) &&
         matches("rgb.snapshot_retransmits",
                 metrics.snapshot_retransmits.value()) &&
         matches("rgb.snapshot_push_give_ups",
                 metrics.snapshot_push_give_ups.value()) &&
         matches("rgb.reconcile_rounds", metrics.reconcile_rounds.value()) &&
         matches("rgb.reconcile_replies",
                 metrics.reconcile_replies.value()) &&
         matches("rgb.reconcile_retransmits",
                 metrics.reconcile_retransmits.value()) &&
         matches("rgb.reconcile_give_ups",
                 metrics.reconcile_give_ups.value()) &&
         matches("rgb.reconcile_reanchors",
                 metrics.reconcile_reanchors.value()) &&
         matches("rgb.stability_alerts", metrics.stability_alerts.value()) &&
         matches("rgb.stability_cuts", metrics.stability_cuts.value()) &&
         matches("rgb.stability_batched_failures",
                 metrics.stability_batched_failures.value()) &&
         matches("rgb.stability_suppressed_flaps",
                 metrics.stability_suppressed_flaps.value()) &&
         matches("rgb.stability_timeout_fallbacks",
                 metrics.stability_timeout_fallbacks.value()) &&
         matches("rgb.digest_groups_packed",
                 metrics.digest_groups_packed.value()) &&
         matches("rgb.group_fulls_sent", metrics.group_fulls_sent.value()) &&
         matches("rgb.group_diffs_sent", metrics.group_diffs_sent.value()) &&
         matches("rgb.groups_created", metrics.groups_created.value()) &&
         matches("net.sent", n.sent) && matches("net.delivered", n.delivered) &&
         matches("net.dropped_loss", n.dropped_loss) &&
         matches("net.dropped_crash", n.dropped_crash) &&
         matches("net.dropped_src_crash", n.dropped_src_crash) &&
         matches("net.dropped_partition", n.dropped_partition) &&
         matches("net.dropped_unattached", n.dropped_unattached) &&
         matches("net.bytes_sent", n.bytes_sent);
}

}  // namespace rgb::obs
