// Protocol-agnostic system model: the read-only facade the invariant
// oracles (check/invariants.hpp) inspect.
//
// Every protocol under conformance test — RGB and the tree / flat-ring /
// gossip baselines — is wrapped in an adapter that flattens its state into
// the same vocabulary:
//
//   * `node_views()`   — per node: alive?, holds-global-view?, and the
//                        membership view with per-member op sequences;
//   * `protocol_view()`— the aggregate answer the protocol's own query
//                        mechanism gives (what a client would see);
//   * `expected()`     — ground truth: who should be a member where;
//   * `meters()`       — the network drop-accounting counters;
//   * `hierarchy_check()` — structural well-formedness (RGB override).
//
// Ground truth lives in `GroundTruth`, which mirrors every membership verb
// issued to the service *and* the fault semantics the paper assumes
// (Section 5.2): members attached to a crashed NE are stranded and must
// eventually be reported failed by the survivors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/report.hpp"
#include "net/network.hpp"
#include "proto/membership_service.hpp"

namespace rgb::core {
class RgbSystem;
}
namespace rgb::tree {
class TreeSystem;
}
namespace rgb::flatring {
class FlatRingSystem;
}
namespace rgb::gossip {
class GossipSystem;
}

namespace rgb::check {

using common::GroupId;
using common::Guid;
using common::NodeId;
using proto::MemberRecord;

/// One member as seen by one node, with the op sequence that produced the
/// record (0 when the protocol does not track sequences) and the
/// attachment epoch behind it (0 when the protocol has no epoch
/// semantics). The monotone oracle holds the pair to the protocol's
/// (claim, seq) lattice order. `gid` scopes the record to its group
/// (multi-group serving); single-group protocols leave the default, so
/// every oracle quantifies over (group, guid) uniformly.
struct ViewEntry {
  MemberRecord record;
  std::uint64_t seq = 0;
  std::uint64_t claim = 0;
  GroupId gid = GroupId{1};
};

/// One protocol node flattened for inspection.
struct NodeView {
  NodeId id;
  bool alive = true;
  /// Whether the protocol *guarantees* this node converges to the global
  /// view (e.g. every RGB NE under TMS + downward dissemination). Nodes
  /// with partial views are exempt from the strict per-node oracles.
  bool holds_global = true;
  std::vector<ViewEntry> entries;  ///< operational members, sorted by guid
};

/// Network accounting counters relevant to the conservation oracle.
struct NetMeters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_crash = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_unattached = 0;

  [[nodiscard]] std::uint64_t total_dropped() const {
    return dropped_loss + dropped_crash + dropped_partition +
           dropped_unattached;
  }
  [[nodiscard]] static NetMeters from(const net::Network::Metrics& m);
};

class SystemModel {
 public:
  virtual ~SystemModel() = default;

  [[nodiscard]] virtual std::string_view protocol() const = 0;
  [[nodiscard]] virtual std::vector<NodeView> node_views() const = 0;
  [[nodiscard]] virtual std::vector<MemberRecord> protocol_view() const = 0;
  [[nodiscard]] virtual std::vector<MemberRecord> expected() const = 0;
  /// Ground truth quantified over (group, guid): who should be a member of
  /// which group, (gid, guid)-sorted. Single-group protocols inherit this
  /// default — everything in GroupId{1} — so the per-group oracles reduce
  /// to the flat ones.
  [[nodiscard]] virtual std::vector<std::pair<GroupId, MemberRecord>>
  grouped_expected() const {
    std::vector<std::pair<GroupId, MemberRecord>> out;
    for (const MemberRecord& rec : expected()) {
      out.emplace_back(GroupId{1}, rec);
    }
    return out;
  }
  /// Guids whose fate is timing-dependent (stranded at a crashed NE:
  /// whether the ring detected the crash before recovery is the protocol's
  /// call, not the oracle's). Excluded from convergence/agreement/zombie
  /// comparisons. Sorted.
  [[nodiscard]] virtual std::vector<Guid> uncertain() const { return {}; }
  [[nodiscard]] virtual NetMeters meters() const = 0;
  /// Structural invariants beyond membership views; default: none.
  virtual void hierarchy_check(sim::Time now, std::size_t cell,
                               std::uint64_t trial, std::uint64_t& ordinal,
                               CheckReport& report) const;
  /// The newest `max_events` events of the protocol's flight recorder (0 =
  /// all retained), formatted; empty when it keeps none (RGB keeps one).
  /// The check driver dumps it next to a violating schedule so every fuzz
  /// repro carries its causal trace.
  [[nodiscard]] virtual std::string flight(std::size_t /*max_events*/) const {
    return {};
  }
};

/// Ground truth mirror of the verbs issued through a MembershipService,
/// with stranding semantics for NE crashes.
class GroundTruth {
 public:
  void join(Guid mh, NodeId ap);
  void leave(Guid mh);
  void handoff(Guid mh, NodeId new_ap);
  void fail(Guid mh);
  /// An NE crashed: members attached to it are stranded. If the crash is
  /// detected their AP's ring declares them failed (the paper's
  /// faulty-disconnection class); if the NE recovers first they live on.
  /// Either outcome is legitimate, so they move to the *uncertain* set and
  /// are excluded from strict comparisons.
  void strand_at(NodeId ap);

  [[nodiscard]] bool is_live(Guid mh) const;
  [[nodiscard]] NodeId ap_of(Guid mh) const;
  /// Live members as records, sorted by guid — comparable to snapshots.
  [[nodiscard]] std::vector<MemberRecord> expected() const;
  /// Group assignment for live members (multi-group serving). Unset means
  /// every member belongs to GroupId{1} only. The function must be pure:
  /// it is re-evaluated on every grouped_expected() call.
  void set_group_fn(std::function<std::vector<GroupId>(Guid)> fn) {
    group_fn_ = std::move(fn);
  }
  /// Live members fanned out over their groups, (gid, guid)-sorted —
  /// comparable to a directory export.
  [[nodiscard]] std::vector<std::pair<GroupId, MemberRecord>>
  grouped_expected() const;
  [[nodiscard]] std::vector<Guid> uncertain() const;  ///< sorted

 private:
  std::unordered_map<Guid, NodeId> live_;
  std::unordered_map<Guid, bool> uncertain_;
  std::function<std::vector<GroupId>(Guid)> group_fn_;
};

// --- adapters ---------------------------------------------------------------

/// RGB: every NE is a view-holder; global-view guarantee depends on the
/// maintenance scheme (TMS + dissemination down ⇒ all NEs; TMS alone ⇒ the
/// top ring; IMS/BMS ⇒ no single NE). `truth` may be null, in which case
/// the facade's own expected_membership() is the ground truth.
class RgbModel final : public SystemModel {
 public:
  RgbModel(const core::RgbSystem& system, const GroundTruth* truth = nullptr);

  [[nodiscard]] std::string_view protocol() const override { return "rgb"; }
  [[nodiscard]] std::vector<NodeView> node_views() const override;
  [[nodiscard]] std::vector<MemberRecord> protocol_view() const override;
  [[nodiscard]] std::vector<MemberRecord> expected() const override;
  [[nodiscard]] std::vector<std::pair<GroupId, MemberRecord>> grouped_expected()
      const override;
  [[nodiscard]] std::vector<Guid> uncertain() const override;
  [[nodiscard]] NetMeters meters() const override;
  void hierarchy_check(sim::Time now, std::size_t cell, std::uint64_t trial,
                       std::uint64_t& ordinal,
                       CheckReport& report) const override;
  [[nodiscard]] std::string flight(std::size_t max_events) const override;

 private:
  const core::RgbSystem& system_;
  const GroundTruth* truth_;
};

/// CONGRESS-style tree: every server replicates the flooded view.
class TreeModel final : public SystemModel {
 public:
  TreeModel(const tree::TreeSystem& system, const net::Network& network,
            const GroundTruth* truth = nullptr);

  [[nodiscard]] std::string_view protocol() const override { return "tree"; }
  [[nodiscard]] std::vector<NodeView> node_views() const override;
  [[nodiscard]] std::vector<MemberRecord> protocol_view() const override;
  [[nodiscard]] std::vector<MemberRecord> expected() const override;
  [[nodiscard]] std::vector<Guid> uncertain() const override;
  [[nodiscard]] NetMeters meters() const override;

 private:
  const tree::TreeSystem& system_;
  const net::Network& network_;
  const GroundTruth* truth_;
};

/// Totem-like flat ring: every ring node replicates the circulated view.
class FlatRingModel final : public SystemModel {
 public:
  FlatRingModel(const flatring::FlatRingSystem& system,
                const net::Network& network,
                const GroundTruth* truth = nullptr);

  [[nodiscard]] std::string_view protocol() const override {
    return "flatring";
  }
  [[nodiscard]] std::vector<NodeView> node_views() const override;
  [[nodiscard]] std::vector<MemberRecord> protocol_view() const override;
  [[nodiscard]] std::vector<MemberRecord> expected() const override;
  [[nodiscard]] std::vector<Guid> uncertain() const override;
  [[nodiscard]] NetMeters meters() const override;

 private:
  const flatring::FlatRingSystem& system_;
  const net::Network& network_;
  const GroundTruth* truth_;
};

/// SWIM-style gossip: every node infects towards the full view.
class GossipModel final : public SystemModel {
 public:
  GossipModel(const gossip::GossipSystem& system, const net::Network& network,
              const GroundTruth* truth = nullptr);

  [[nodiscard]] std::string_view protocol() const override { return "gossip"; }
  [[nodiscard]] std::vector<NodeView> node_views() const override;
  [[nodiscard]] std::vector<MemberRecord> protocol_view() const override;
  [[nodiscard]] std::vector<MemberRecord> expected() const override;
  [[nodiscard]] std::vector<Guid> uncertain() const override;
  [[nodiscard]] NetMeters meters() const override;

 private:
  const gossip::GossipSystem& system_;
  const net::Network& network_;
  const GroundTruth* truth_;
};

/// Hand-built model for oracle unit tests: every field is set directly, so
/// tests can construct deliberately violating histories.
class StaticModel final : public SystemModel {
 public:
  std::string name = "static";
  std::vector<NodeView> views;
  std::vector<MemberRecord> aggregate;
  std::vector<MemberRecord> truth;
  std::vector<Guid> unsure;
  NetMeters net;

  [[nodiscard]] std::string_view protocol() const override { return name; }
  [[nodiscard]] std::vector<NodeView> node_views() const override {
    return views;
  }
  [[nodiscard]] std::vector<MemberRecord> protocol_view() const override {
    return aggregate;
  }
  [[nodiscard]] std::vector<MemberRecord> expected() const override {
    return truth;
  }
  [[nodiscard]] std::vector<Guid> uncertain() const override {
    return unsure;
  }
  [[nodiscard]] NetMeters meters() const override { return net; }
};

}  // namespace rgb::check
