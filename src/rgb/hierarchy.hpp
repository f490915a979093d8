// Hierarchy construction and the RGB system facade.
//
// `RgbSystem` builds the full ring-based hierarchy of Figure 2 — one BR
// ring at the top, r AG rings below it, r^2 AP rings below those (and so on
// for deeper layouts) — wires parent/child pointers, and exposes the
// protocol behind the protocol-agnostic `proto::MembershipService`
// interface used by workloads, benches and examples.
//
// It also offers the introspection and fault-injection hooks the test suite
// and the reliability experiments rely on.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "obs/obs.hpp"
#include "proto/membership_service.hpp"
#include "rgb/metrics.hpp"
#include "rgb/network_entity.hpp"
#include "rgb/types.hpp"

namespace rgb::core {

/// Shape of a uniform hierarchy: `ring_tiers` tiers of rings (the paper's
/// h) with exactly `ring_size` nodes per ring (the paper's r). Tier t
/// contains r^t rings; the bottom tier holds n = r^h access proxies.
struct HierarchyLayout {
  int ring_tiers = 3;
  int ring_size = 5;

  [[nodiscard]] std::uint64_t ap_count() const;
  [[nodiscard]] std::uint64_t ring_count() const;
  [[nodiscard]] std::uint64_t ne_count() const;
};

class RgbSystem : public proto::MembershipService {
 public:
  /// Builds the hierarchy immediately. NodeIds are assigned sequentially
  /// from `first_node_id` tier by tier, so the first node of every ring is
  /// also its lowest id — consistent with the deterministic leadership rule
  /// used after failures.
  RgbSystem(net::Network& network, RgbConfig config, HierarchyLayout layout,
            std::uint64_t first_node_id = 1);

  ~RgbSystem() override;

  // --- sharding ------------------------------------------------------------

  /// Splits the system across `count` logical shards. Each tier-0 node (by
  /// flattened ring position) anchors a *region* — itself plus the subtree
  /// of rings transitively hanging under it — and regions are assigned
  /// round-robin over shards, so intra-ring traffic below tier 0 stays
  /// shard-local and only tier-0 token/notify hops cross shards. Also
  /// splits the network's RNG and the obs instruments per shard. Call
  /// after construction, after the simulator's own configure_shards, and
  /// before any traffic. Facade calls from outside shard contexts are
  /// wrapped in run_as(home shard); a facade join may also run inside a
  /// window, scheduled on the joining AP's home shard (schedule_on).
  void configure_shards(std::uint32_t count);

  /// Home shard of an NE (0 when unsharded).
  [[nodiscard]] std::uint32_t shard_of(NodeId id) const;

  // --- MembershipService -----------------------------------------------------

  void join(Guid mh, NodeId ap) override;
  void leave(Guid mh) override;
  void handoff(Guid mh, NodeId new_ap) override;
  void fail(Guid mh) override;
  using proto::MembershipService::membership;
  [[nodiscard]] std::vector<proto::MemberRecord> membership(
      proto::QueryScheme scheme) const override;

  // --- topology introspection ---------------------------------------------------

  [[nodiscard]] const HierarchyLayout& layout() const { return layout_; }
  [[nodiscard]] const RgbConfig& config() const { return config_; }
  [[nodiscard]] NetworkEntity* entity(NodeId id);
  [[nodiscard]] const NetworkEntity* entity(NodeId id) const;
  /// All access proxies (bottom tier), in id order.
  [[nodiscard]] const std::vector<NodeId>& aps() const { return aps_; }
  /// All NEs, in id order.
  [[nodiscard]] std::vector<NodeId> all_nes() const;
  /// Rings of one tier: each entry is the roster in ring order.
  [[nodiscard]] const std::vector<std::vector<NodeId>>& rings(int tier) const;
  [[nodiscard]] std::vector<NodeId> ring_leaders(int tier) const;
  [[nodiscard]] int tier_count() const { return layout_.ring_tiers; }

  /// Builds the query fan-out plan for `scheme` (Section 4.4): TMS asks the
  /// topmost ring leader, BMS every bottommost ring leader, IMS the ring
  /// leaders of the middle tier.
  [[nodiscard]] QueryPlan query_plan(proto::QueryScheme scheme) const;

  // --- fault injection ---------------------------------------------------------

  void crash_ne(NodeId id);
  void recover_ne(NodeId id);

  /// Enables periodic ring probing on every NE (needed for partition
  /// detection and merge; requires config.probe_period > 0).
  void start_probing();

  // --- metrics & invariants -------------------------------------------------------

  [[nodiscard]] RgbMetrics& metrics() { return metrics_; }
  [[nodiscard]] const RgbMetrics& metrics() const { return metrics_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const net::Network& network() const { return network_; }

  /// Per-instance observability: the op tracer, the one recorder.
  /// Default-on.
  [[nodiscard]] obs::ProtocolObs& obs() { return obs_; }
  [[nodiscard]] const obs::ProtocolObs& obs() const { return obs_; }

  /// The membership the system *should* converge to (all joins minus
  /// leaves/fails, at their latest APs), derived from the calls made
  /// through this facade.
  [[nodiscard]] std::vector<proto::MemberRecord> expected_membership() const;

  /// Whether `ne` is meant to hold the global view: every NE under TMS
  /// with downward dissemination, only the top tier under TMS without it,
  /// and no NE under IMS/BMS (retain_tier > 0), where each tier keeps only
  /// what concerns it. The convergence and divergence checks below and
  /// the check layer's oracles all apply this one rule.
  [[nodiscard]] bool holds_global_view(const NetworkEntity& ne) const;

  /// True when every alive NE that holds the global view agrees with
  /// `expected_membership()` and every alive AP knows its own members.
  [[nodiscard]] bool membership_converged() const;

  /// Structural faults of the rings, one line each (empty when sound):
  /// per ring, alive members that disagree with the first alive member on
  /// roster or leader, a leader outside the agreed roster, and
  /// next-pointers that do not form a single cycle over that roster. The
  /// check layer's hierarchy oracle reports each line as a violation.
  [[nodiscard]] std::vector<std::string> ring_faults() const;

  /// Total view divergence: the number of (NE, member-record) disagreements
  /// between each alive global-view NE's operational snapshot and
  /// `expected_membership()` (symmetric difference, summed over NEs). Zero
  /// iff every such NE holds exactly the expected view — the deterministic
  /// measuring stick for the join-surge dissemination-loss open item (a
  /// drained join phase should leave this at 0; the dissemination path
  /// historically leaves a residue at 20k members that the first
  /// anti-entropy window mops up).
  [[nodiscard]] std::uint64_t view_divergence() const;

  /// `expected_membership()` quantified over (group, guid): each attached
  /// member appears once per group the deterministic member_groups()
  /// assignment puts it in. gid-ascending, guid-ascending within a group.
  [[nodiscard]] std::vector<std::pair<GroupId, proto::MemberRecord>>
  grouped_expected_membership() const;

  /// `view_divergence()` quantified per group: (NE, group, record)
  /// disagreements between each alive global-view NE's per-group tables
  /// and `grouped_expected_membership()`. Zero iff every group's view is
  /// exactly right on every such NE — the bench.multigroup convergence
  /// criterion (a merged-view zero can mask a record parked in the wrong
  /// group; this cannot).
  [[nodiscard]] std::uint64_t group_view_divergence() const;

  /// AP a member is currently attached to, as tracked by this facade.
  [[nodiscard]] NodeId ap_of(Guid mh) const;

 private:
  void build();
  /// Runs `fn` in `id`'s home-shard context (so events it schedules — retx
  /// timers, probe ticks — land on, and are cancellable from, that shard).
  /// Inside a shard window this asserts the context already matches.
  void with_entity_shard(NodeId id, const std::function<void()>& fn);

  net::Network& network_;
  RgbConfig config_;
  HierarchyLayout layout_;
  std::uint64_t first_node_id_;
  RgbMetrics metrics_;
  obs::ProtocolObs obs_;  ///< must precede entities_: NEs hold a reference

  std::vector<std::unique_ptr<NetworkEntity>> entities_;
  std::unordered_map<NodeId, NetworkEntity*> by_id_;
  std::vector<std::vector<std::vector<NodeId>>> tiers_;  // [tier][ring][pos]
  std::vector<NodeId> aps_;
  /// Member -> current AP.
  std::unordered_map<Guid, NodeId> attachments_;
};

}  // namespace rgb::core
