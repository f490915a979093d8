#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace rgb::net {

namespace {

/// Shard-order merge of one stripe into the running totals. Counters,
/// per-kind ones included, are plain sums (commutative); the latency
/// accumulator merges in the fixed stripe order, so the result is a
/// function of the logical shard count alone — never of worker
/// interleaving.
void merge_metrics(Network::Metrics& out, const Network::Metrics& in) {
  for (const auto& field : kNetMetricFields) {
    out.*field.member += in.*field.member;
  }
  const std::size_t kinds = in.sent_per_kind.size();
  if (out.sent_per_kind.size() < kinds) {
    out.sent_per_kind.resize(kinds);
    out.bytes_per_kind.resize(kinds);
  }
  for (std::size_t kind = 0; kind < kinds; ++kind) {
    out.sent_per_kind[kind] += in.sent_per_kind[kind];
    out.bytes_per_kind[kind] += in.bytes_per_kind[kind];
  }
  out.delivery_latency_us.merge(in.delivery_latency_us);
}

}  // namespace

Network::Network(sim::Simulator& simulator, common::RngStream rng,
                 LinkConfig default_link)
    : sim_(simulator), base_rng_(std::move(rng)), default_link_(default_link) {
  stripes_.push_back(ShardState{base_rng_, Metrics{}});
}

void Network::configure_shards(std::uint32_t count) {
  assert(count >= 1);
  assert(metrics().sent == 0 && metrics().dropped_src_crash == 0 &&
         "configure_shards before any traffic");
  stripes_.clear();
  stripes_.reserve(count);
  if (count == 1) {
    // Serial: the base stream itself, byte-identical to the unsharded path.
    stripes_.push_back(ShardState{base_rng_, Metrics{}});
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    stripes_.push_back(ShardState{
        base_rng_.fork("shard" + std::to_string(i)), Metrics{}});
  }
}

void Network::assign_shard(NodeId id, std::uint32_t shard) {
  assert(shard < stripes_.size());
  nodes_[id].shard = shard;
}

std::uint32_t Network::shard_of(NodeId id) const {
  return record_of(id).shard;
}

Network::ShardState& Network::stripe() {
  const std::uint32_t s = sim::current_executing_shard();
  return stripes_[s < stripes_.size() ? s : 0];
}

const Network::Node Network::kNoRecord{};

const Network::Node& Network::record_of(NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? kNoRecord : it->second;
}

void Network::attach(NodeId id, Endpoint* endpoint) {
  assert(id.valid());
  assert(endpoint != nullptr);
  nodes_[id].endpoint = endpoint;
}

void Network::detach(NodeId id) { nodes_[id].endpoint = nullptr; }

bool Network::is_attached(NodeId id) const {
  return record_of(id).endpoint != nullptr;
}

void Network::set_link(NodeId a, NodeId b, LinkConfig cfg) {
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    std::vector<Link>& links = nodes_[from].links;
    const auto it = std::lower_bound(links.begin(), links.end(), to);
    if (it != links.end() && it->peer == to) {
      it->config = cfg;
    } else {
      links.insert(it, Link{to, cfg});
    }
  }
}

void Network::set_default_drop_probability(double p) {
  default_link_.drop_probability = p;
}

const LinkConfig& Network::link_from(const Node& a, NodeId b) const {
  const auto it = std::lower_bound(a.links.begin(), a.links.end(), b);
  return it != a.links.end() && it->peer == b ? it->config : default_link_;
}

void Network::crash(NodeId id) {
  Node& node = nodes_[id];
  if (!node.crashed_at) node.crashed_at = sim_.now();
}

void Network::recover(NodeId id) { nodes_[id].crashed_at.reset(); }

bool Network::is_crashed(NodeId id) const {
  return record_of(id).crashed_at.has_value();
}

std::optional<sim::Time> Network::crashed_since(NodeId id) const {
  return record_of(id).crashed_at;
}

void Network::set_partition(NodeId id, int partition) {
  nodes_[id].partition = partition;
}

void Network::clear_partitions() {
  for (auto& [id, node] : nodes_) node.partition = 0;
}

int Network::partition_of(NodeId id) const {
  return record_of(id).partition;
}

void Network::reset_metrics() {
  for (ShardState& s : stripes_) s.metrics = Metrics{};
  merged_ = Metrics{};
}

const Network::Metrics& Network::metrics() const {
  if (stripes_.size() == 1) return stripes_[0].metrics;
  merged_ = Metrics{};
  for (const ShardState& s : stripes_) merge_metrics(merged_, s.metrics);
  return merged_;
}

void Network::send(Envelope env) {
  assert(env.src.valid() && env.dst.valid());

  ShardState& st = stripe();

  // Encoded-size hook: re-price the envelope before anything else — byte
  // counters, taps (including the src-crash drop tap below) and delivery
  // must all see the same (real) size.
  if (sizer_) {
    if (const std::uint32_t encoded = sizer_(env); encoded != 0) {
      env.size_bytes = encoded;
    }
  }

  // A crashed source produces nothing at all — the attempt never enters the
  // network, so it is metered apart from `sent` and the in-network drops.
  const Node& src = record_of(env.src);
  if (src.crashed_at) {
    ++st.metrics.dropped_src_crash;
    if (tap_) tap_(env, false);
    return;
  }

  // Causal stamping happens on admission, before the loss/partition
  // verdicts: a dropped message still happened at the sender, and the
  // delivery closure below must capture the stamped envelope.
  if (trace_hooks_ != nullptr) trace_hooks_->on_send(env, sim_.now());

  ++st.metrics.sent;
  st.metrics.bytes_sent += env.size_bytes;
  if (env.kind >= st.metrics.sent_per_kind.size()) {
    st.metrics.sent_per_kind.resize(env.kind + std::size_t{1});
    st.metrics.bytes_per_kind.resize(env.kind + std::size_t{1});
  }
  ++st.metrics.sent_per_kind[env.kind];
  st.metrics.bytes_per_kind[env.kind] += env.size_bytes;

  const Node& dst = record_of(env.dst);
  const LinkConfig& link = link_from(src, env.dst);

  if (src.partition != dst.partition) {
    ++st.metrics.dropped_partition;
    if (tap_) tap_(env, false);
    return;
  }
  if (link.drop_probability > 0.0 && st.rng.chance(link.drop_probability)) {
    ++st.metrics.dropped_loss;
    if (tap_) tap_(env, false);
    return;
  }

  const sim::Duration delay = link.latency.sample(st.rng);
  const sim::Time sent_at = sim_.now();

  auto deliver = [this, env = std::move(env), sent_at, src = &src,
                  dst = &dst]() {
    // Runs inside the destination's shard window (or the serial loop), so
    // it meters into the destination's stripe. Re-check at delivery time:
    // the destination may have crashed, a partition may have formed, or the
    // endpoint may have detached while the message was in flight. The
    // checks are ordered early-returns so a message failing several of them
    // (e.g. a destination that is both crashed and partitioned away) is
    // counted in exactly one drop bucket. An end that had no record at
    // send may have gained one since.
    const Node& from = src == &kNoRecord ? record_of(env.src) : *src;
    const Node& to = dst == &kNoRecord ? record_of(env.dst) : *dst;
    ShardState& at_dst = stripe();
    if (to.crashed_at) {
      ++at_dst.metrics.dropped_crash;
      if (tap_) tap_(env, false);
      return;
    }
    if (from.partition != to.partition) {
      ++at_dst.metrics.dropped_partition;
      if (tap_) tap_(env, false);
      return;
    }
    if (to.endpoint == nullptr) {
      ++at_dst.metrics.dropped_unattached;
      if (tap_) tap_(env, false);
      return;
    }
    ++at_dst.metrics.delivered;
    at_dst.metrics.delivery_latency_us.add(
        static_cast<double>(sim_.now() - sent_at));
    if (tap_) tap_(env, true);
    if (trace_hooks_ != nullptr) {
      trace_hooks_->on_deliver(env, sim_.now(), *to.endpoint);
    } else {
      to.endpoint->deliver(env);
    }
  };

  // Route to the destination's home shard (shard 0 serially); same-shard
  // sends take the direct path, cross-shard ones ride the barrier outbox
  // (the link latency >= epoch contract keeps them beyond the current
  // window). An absolute time keeps deliveries in the kernel's heap: each
  // sampled latency would make a timer lane of its own.
  sim_.schedule_on(dst.shard, sent_at + delay, std::move(deliver));
}

}  // namespace rgb::net
