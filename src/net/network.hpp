// Simulated message-passing network: the substrate standing in for the
// mobile Internet of the paper's 4-tier architecture.
//
// Responsibilities:
//   * asynchronous, unordered delivery with per-link latency models,
//   * message loss (per-link drop probability),
//   * node crash/recover fault injection (the paper's analysis assumes node
//     faults only and simulates link faults by node faults — Section 5.2;
//     we support both, and the reliability benches use node faults),
//   * network partitions (reachability classes),
//   * metering: messages sent/delivered/dropped, bytes, per-kind counters —
//     this is what the scalability benches read to count "message hops".
//
// All per-node state is one record per node id (Network::Node), never
// erased.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace rgb::net {

/// Anything attachable to the network: protocol processes, hosts, probes.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called at the delivery time of a message addressed to this endpoint.
  virtual void deliver(const Envelope& env) = 0;
};

/// Observability hooks around the message path — the instrumentation
/// contract the span layer (and any future transport) implements. The
/// network stays protocol- and obs-agnostic: it only gives the hooks the
/// two moments that matter, stamping on admission and wrapping delivery.
class TraceHooks {
 public:
  virtual ~TraceHooks() = default;
  /// A send admitted into the network (source alive; called before the
  /// loss/partition verdicts — a dropped message still *happened* at the
  /// sender). May stamp env.trace / env.span; the delivery closure and
  /// taps see the stamped envelope.
  virtual void on_send(Envelope& env, sim::Time now) = 0;
  /// Wraps the endpoint's deliver call at delivery time. The hook must
  /// invoke `endpoint.deliver(env)` exactly once.
  virtual void on_deliver(const Envelope& env, sim::Time now,
                          Endpoint& endpoint) = 0;
};

/// Per-link behaviour. Links are symmetric; the default applies to every
/// pair without an explicit override.
struct LinkConfig {
  LatencyModel latency = LatencyModel::fixed(sim::msec(1));
  double drop_probability = 0.0;
};

class Network {
 public:
  /// Drop accounting is single-bucket: every message that entered the
  /// network (counted in `sent`) terminates in exactly one of `delivered`,
  /// `dropped_loss`, `dropped_partition`, `dropped_crash` or
  /// `dropped_unattached` — even when several conditions hold at once (a
  /// destination both crashed and partitioned counts once, as a crash
  /// drop). Send attempts by a crashed source never enter the network and
  /// are metered separately in `dropped_src_crash`, so the conservation
  /// identity
  ///   sent == delivered + dropped_loss + dropped_partition
  ///           + dropped_crash + dropped_unattached + in_flight
  /// holds exactly; with a drained event queue, in_flight == 0.
  /// tests/net/network_test.cpp and the check-layer metering oracle assert
  /// this.
  struct Metrics {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_loss = 0;
    std::uint64_t dropped_crash = 0;
    std::uint64_t dropped_src_crash = 0;
    std::uint64_t dropped_partition = 0;
    std::uint64_t dropped_unattached = 0;
    std::uint64_t bytes_sent = 0;
    /// Messages and bytes metered per kind, indexed by kind. Kinds are
    /// small protocol-defined integers, so both vectors (always of one
    /// length) grow to the largest kind sent, and a send costs two array
    /// increments; a kind that never sent reads 0.
    std::vector<std::uint64_t> sent_per_kind;
    std::vector<std::uint64_t> bytes_per_kind;
    common::Accumulator delivery_latency_us;

    /// Bytes metered under `kind` (0 when the kind never sent).
    [[nodiscard]] std::uint64_t bytes_of(MessageKind kind) const {
      return kind < bytes_per_kind.size() ? bytes_per_kind[kind] : 0;
    }
    /// Messages metered under `kind` (0 when the kind never sent).
    [[nodiscard]] std::uint64_t sent_of(MessageKind kind) const {
      return kind < sent_per_kind.size() ? sent_per_kind[kind] : 0;
    }
  };

  Network(sim::Simulator& simulator, common::RngStream rng,
          LinkConfig default_link = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attaches an endpoint under `id`. The endpoint must outlive the network
  /// or detach first. Attaching over an existing id replaces it.
  void attach(NodeId id, Endpoint* endpoint);
  void detach(NodeId id);
  [[nodiscard]] bool is_attached(NodeId id) const;

  /// Overrides the link model between `a` and `b` (symmetric).
  void set_link(NodeId a, NodeId b, LinkConfig cfg);

  /// Adjusts the drop probability of the *default* link (per-pair overrides
  /// keep their own). The fault-schedule engine uses this for drop bursts:
  /// raise at burst start, restore at burst end.
  void set_default_drop_probability(double p);
  [[nodiscard]] double default_drop_probability() const {
    return default_link_.drop_probability;
  }

  /// Queues `env` for delivery. No-op (metered as a drop) if the source is
  /// crashed. Loss/partition/crash checks happen per the rules above.
  void send(Envelope env);

  // --- fault injection -----------------------------------------------------

  /// Crashes a node: it stops sending and receiving until `recover`.
  void crash(NodeId id);
  void recover(NodeId id);
  [[nodiscard]] bool is_crashed(NodeId id) const;
  /// Sim time the node's current crash began (nullopt when not crashed).
  /// Observability ground truth: lets detectors meter how long a crash
  /// went unnoticed without the protocol ever reading it for decisions.
  [[nodiscard]] std::optional<sim::Time> crashed_since(NodeId id) const;

  /// Places `id` into reachability class `partition`. Messages cross only
  /// between nodes of the same class. Default class is 0 for everyone.
  void set_partition(NodeId id, int partition);
  void clear_partitions();
  [[nodiscard]] int partition_of(NodeId id) const;

  // --- metering ------------------------------------------------------------

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  void reset_metrics() { metrics_ = Metrics{}; }

  /// Test/trace hook, called for every send attempt with the final verdict.
  using Tap = std::function<void(const Envelope&, bool delivered)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Optional encoded-size hook: when set, every send consults it and a
  /// non-zero return replaces the envelope's size estimate for byte
  /// metering (and for downstream taps/delivery). Returning 0 keeps the
  /// caller's estimate. The wire subsystem installs its codec-backed sizer
  /// here (wire::attach_encoded_metering) so `bytes_per_kind` counts real
  /// encoded bytes; the network itself stays protocol-agnostic.
  using Sizer = std::function<std::uint32_t(const Envelope&)>;
  void set_sizer(Sizer sizer) { sizer_ = std::move(sizer); }
  [[nodiscard]] bool has_sizer() const { return static_cast<bool>(sizer_); }

  /// Installs (or clears, with nullptr) the causal-trace hooks. Not owned;
  /// the hooks must outlive the network or be cleared first (RgbSystem
  /// installs its ProtocolObs hooks and clears them on destruction).
  void set_trace_hooks(TraceHooks* hooks) { trace_hooks_ = hooks; }
  [[nodiscard]] TraceHooks* trace_hooks() const { return trace_hooks_; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  /// A link override; `set_link` stores one in each end's record.
  struct Link {
    NodeId peer;
    LinkConfig config;
    bool operator<(NodeId id) const { return peer < id; }  ///< by peer
  };

  /// Everything the network knows about one node. A record is never
  /// erased (detach clears the endpoint), so a message in flight holds
  /// pointers to its two ends' records and its delivery re-checks them
  /// without a lookup.
  struct Node {
    Endpoint* endpoint = nullptr;  ///< nullptr once detached
    int partition = 0;
    std::optional<sim::Time> crashed_at;  ///< set while crashed
    std::vector<Link> links;              ///< sorted by peer
  };

  /// All defaults: the record of a node nothing was ever set for.
  static const Node kNoRecord;

  /// The node's record, or kNoRecord.
  [[nodiscard]] const Node& record_of(NodeId id) const;
  [[nodiscard]] const LinkConfig& link_from(const Node& a, NodeId b) const;

  sim::Simulator& sim_;
  common::RngStream rng_;  ///< loss and latency draws
  LinkConfig default_link_;
  std::unordered_map<NodeId, Node> nodes_;  ///< node-based: stable addresses
  Metrics metrics_;
  Tap tap_;
  Sizer sizer_;
  TraceHooks* trace_hooks_ = nullptr;
};

/// The Network::Metrics totals, in catalog order: the one description of
/// each.
inline constexpr common::MetricField<Network::Metrics, std::uint64_t>
    kNetMetricFields[] = {
        {"net.sent", &Network::Metrics::sent,
         "messages admitted into the network"},
        {"net.delivered", &Network::Metrics::delivered,
         "messages delivered to an endpoint"},
        {"net.dropped_loss", &Network::Metrics::dropped_loss,
         "messages dropped by the loss model"},
        {"net.dropped_crash", &Network::Metrics::dropped_crash,
         "messages dropped at a crashed destination"},
        {"net.dropped_src_crash", &Network::Metrics::dropped_src_crash,
         "sends refused because the source had crashed"},
        {"net.dropped_partition", &Network::Metrics::dropped_partition,
         "messages dropped by an active partition"},
        {"net.dropped_unattached", &Network::Metrics::dropped_unattached,
         "messages to endpoints never attached"},
        {"net.bytes_sent", &Network::Metrics::bytes_sent,
         "total payload bytes admitted"},
};
static_assert(common::distinct_members(kNetMetricFields),
              "a kNetMetricFields row repeats a total");

}  // namespace rgb::net
