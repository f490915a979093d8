#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rgb::net {

Network::Network(sim::Simulator& simulator, common::RngStream rng,
                 LinkConfig default_link)
    : sim_(simulator), rng_(std::move(rng)), default_link_(default_link) {}

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

void Network::send(Envelope env) {
  assert(env.src.valid() && env.dst.valid());

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
    ++metrics_.dropped_src_crash;
    if (tap_) tap_(env, false);
    return;
  }

  // Causal stamping happens on admission, before the loss/partition
  // verdicts: a dropped message still happened at the sender, and the
  // delivery closure below must capture the stamped envelope.
  if (trace_hooks_ != nullptr) trace_hooks_->on_send(env, sim_.now());

  ++metrics_.sent;
  metrics_.bytes_sent += env.size_bytes;
  if (env.kind >= metrics_.sent_per_kind.size()) {
    metrics_.sent_per_kind.resize(env.kind + std::size_t{1});
    metrics_.bytes_per_kind.resize(env.kind + std::size_t{1});
  }
  ++metrics_.sent_per_kind[env.kind];
  metrics_.bytes_per_kind[env.kind] += env.size_bytes;

  const Node& dst = record_of(env.dst);
  const LinkConfig& link = link_from(src, env.dst);

  if (src.partition != dst.partition) {
    ++metrics_.dropped_partition;
    if (tap_) tap_(env, false);
    return;
  }
  if (link.drop_probability > 0.0 && rng_.chance(link.drop_probability)) {
    ++metrics_.dropped_loss;
    if (tap_) tap_(env, false);
    return;
  }

  const sim::Duration delay = link.latency.sample(rng_);
  const sim::Time sent_at = sim_.now();

  auto deliver = [this, env = std::move(env), sent_at, src = &src,
                  dst = &dst]() {
    // Re-check at delivery time: the destination may have crashed, a
    // partition may have formed, or the endpoint may have detached while
    // the message was in flight. The checks are ordered early-returns so a
    // message failing several of them (e.g. a destination that is both
    // crashed and partitioned away) is counted in exactly one drop bucket.
    // An end that had no record at send may have gained one since.
    const Node& from = src == &kNoRecord ? record_of(env.src) : *src;
    const Node& to = dst == &kNoRecord ? record_of(env.dst) : *dst;
    if (to.crashed_at) {
      ++metrics_.dropped_crash;
      if (tap_) tap_(env, false);
      return;
    }
    if (from.partition != to.partition) {
      ++metrics_.dropped_partition;
      if (tap_) tap_(env, false);
      return;
    }
    if (to.endpoint == nullptr) {
      ++metrics_.dropped_unattached;
      if (tap_) tap_(env, false);
      return;
    }
    ++metrics_.delivered;
    metrics_.delivery_latency_us.add(
        static_cast<double>(sim_.now() - sent_at));
    if (tap_) tap_(env, true);
    if (trace_hooks_ != nullptr) {
      trace_hooks_->on_deliver(env, sim_.now(), *to.endpoint);
    } else {
      to.endpoint->deliver(env);
    }
  };

  // An absolute time keeps deliveries in the kernel's heap: each sampled
  // latency would make a timer lane of its own.
  sim_.schedule_at(sent_at + delay, std::move(deliver));
}

}  // namespace rgb::net
