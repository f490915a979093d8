// The RGB Network Entity (NE): an Access Proxy, Access Gateway or Border
// Router participating in one logical ring of the ring-based hierarchy
// (paper Section 4).
//
// Each NE keeps only local knowledge — its leader, previous, next, parent
// and child neighbours plus the ring roster — and runs the One-Round Token
// Passing Membership algorithm of Figure 3:
//
//   * membership changes enter the NE's aggregating MQ (from attached MHs,
//     from its child ring's leader, or from its parent);
//   * the NE acquires the ring token from the leader and launches a round;
//     the token visits every ring member exactly once;
//   * while the token passes a node, that node applies the aggregated ops,
//     sets RingOK, and emits Notification-to-Parent (leaders only) and
//     Notification-to-Child (nodes with a child ring), never echoing an op
//     back over the edge it arrived on;
//   * when the token returns to the holder, the holder acknowledges the
//     contributors (Holder-Acknowledgement) and releases the token.
//
// Fault tolerance: every token hop is acknowledged and retransmitted; after
// max_retx failures the sender declares its successor faulty, splices it out
// of the ring (the paper's "locally repaired by excluding the faulty node"),
// emits NE-Failure plus Member-Failure ops for the members stranded at the
// failed NE, and re-routes the token. Leader failures are detected through
// unanswered token requests and resolved by a deterministic leadership rule
// (lowest NodeId among alive roster members). Partition probing and ring
// merging — the paper's future work — are implemented as extensions.
//
// Component map. This class is the ring core: the Section 4.2 pointers and
// roster, MQ intake, token rounds and the reliable token pass, inter-ring
// notifications, repair and cuts, reforms, NE join/leave, queries and the
// probe tick. Four components, each held by value, own the extensions'
// state and the handlers of their message kinds:
//   StabilityPlane (stability.hpp): pending alerts, liveness pings, fallback
//     and cut timers, pre-cut verification — kAlert, kAlertAck;
//   Attachments (attachments.hpp): the AP's claims, reaffirmation, the
//     reconcile round, MH heartbeats and the silence sweep — kReconcile,
//     kReconcileAck, kMhHeartbeat;
//   SnapshotTransfer (snapshot_transfer.hpp): flush debounce, acked pushes,
//     request and serve, the encoded-payload cache — kSnapshotRequest,
//     kSnapshot, kSnapshotAck;
//   ViewSync (view_sync.hpp): kSummary/kDigest/kFull/kDiff anti-entropy,
//     merge probing, offer and accept — kViewSync, kMergeOffer,
//     kMergeAccept.
// A component reaches the core only through these calls: send, transmit
// (an acked PendingSend), set_timer / cancel_timer / now / network, the
// ring reads (id, is_leader, roster_, in_roster, leader_, parent_, child_,
// tier_, known_peers_), config_ / metrics_ / obs_, dir_ with import and
// note_group_count, declare_cut, member_op, enqueue_local_op(s),
// adopt_shape and merge_fragment. The components never call each other.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bounded_id_set.hpp"
#include "obs/obs.hpp"
#include "proto/process.hpp"
#include "rgb/attachments.hpp"
#include "rgb/group_directory.hpp"
#include "rgb/messages.hpp"
#include "rgb/metrics.hpp"
#include "rgb/snapshot_transfer.hpp"
#include "rgb/stability.hpp"
#include "rgb/view_sync.hpp"

namespace rgb::core {

/// Deterministic leadership rule after failures: the lowest NodeId among
/// alive roster members, `excluded` aside. Every node evaluates the same
/// rule on the same (eventually consistent) roster, so leadership converges
/// without an election protocol.
[[nodiscard]] NodeId elect_leader(const std::vector<NodeId>& roster,
                                  NodeId excluded = NodeId{});

class NetworkEntity : public proto::Process {
 public:
  /// `tier` counts from the top: 0 = BR ring tier. `metrics` and `obs` may
  /// be shared across all NEs of a deployment; both must outlive the NE.
  NetworkEntity(NodeId id, NeRole role, int tier, net::Network& network,
                const RgbConfig& config, RgbMetrics& metrics,
                obs::ProtocolObs& obs);

  // --- wiring (HierarchyBuilder / dynamic join) ------------------------------

  /// Installs the ring: `roster` in ring order (must contain this NE),
  /// `leader` one of its members. Pointers (previous/next) are derived.
  void configure_ring(std::vector<NodeId> roster, NodeId leader);

  /// Sets the upper-tier NE this ring reports to (same value for every ring
  /// member; only the leader sends to it).
  void set_parent(NodeId parent);

  /// Sets the child ring's leader (the paper's `Child` pointer); invalid id
  /// clears it.
  void set_child(NodeId child_ring_leader);

  /// Starts periodic ring probing (leader only does the probing; safe to
  /// call on every NE).
  void start_probing();

  // --- local membership events (AP tier) -------------------------------------

  /// An MH joined / left / failed at this AP, or handed off to this AP from
  /// `old_ap`, in group `gid`. These inject ops exactly like MH-originated
  /// requests do: the op lands in `gid`'s table/queue, and attachment
  /// claims are kept per (member, group).
  void local_member_join(GroupId gid, Guid mh);
  void local_member_leave(GroupId gid, Guid mh);
  void local_member_handoff_in(GroupId gid, Guid mh, NodeId old_ap);
  void local_member_fail(GroupId gid, Guid mh);

  // --- dynamic NE membership (Section 4.3) -----------------------------------

  /// Asks `ring_leader` to admit this NE into its ring.
  void request_ring_join(NodeId ring_leader);

  /// Gracefully leaves the ring (NE-Leave op disseminated first).
  void request_ring_leave();

  /// Forms a singleton ring with this NE as leader (the paper's fallback
  /// when no APR can be contacted).
  void form_singleton_ring();

  // --- endpoint --------------------------------------------------------------

  void deliver(const net::Envelope& env) override;

  // --- introspection (tests, benches, facade) --------------------------------

  [[nodiscard]] NeRole role() const { return role_; }
  [[nodiscard]] int tier() const { return tier_; }
  [[nodiscard]] NodeId leader() const { return leader_; }
  [[nodiscard]] NodeId next_node() const { return next_; }
  [[nodiscard]] NodeId previous_node() const { return previous_; }
  [[nodiscard]] NodeId parent() const { return parent_; }
  [[nodiscard]] NodeId child() const { return child_; }
  [[nodiscard]] bool ring_ok() const { return ring_ok_; }
  [[nodiscard]] bool parent_ok() const { return parent_ok_; }
  [[nodiscard]] bool child_ok() const { return child_ok_; }
  [[nodiscard]] bool is_leader() const { return leader_ == id(); }
  [[nodiscard]] const std::vector<NodeId>& roster() const { return roster_; }

  /// The paper's ListOfRingMembers for the default group (kDefaultGroup):
  /// all members within the coverage of this NE's ring. The pre-v4
  /// single-group view — multi-group callers go through directory().
  [[nodiscard]] const MemberTable& ring_members() const {
    static const MemberTable kEmptyTable;
    const MemberTable* table = dir_.table_if(kDefaultGroup);
    return table != nullptr ? *table : kEmptyTable;
  }
  /// Per-group membership state (multi-group serving).
  [[nodiscard]] const GroupDirectory& directory() const { return dir_; }
  /// The paper's ListOfLocalMembers: members attached to this NE (merged
  /// across groups, deduplicated by guid).
  [[nodiscard]] std::vector<MemberRecord> local_members() const;
  /// The paper's ListOfNeighborMembers: members at the previous and next
  /// ring neighbours (fast-handoff candidates).
  [[nodiscard]] std::vector<MemberRecord> neighbor_members() const;

  [[nodiscard]] std::size_t queue_size() const { return dir_.queue_size(); }
  [[nodiscard]] bool token_parked_here() const {
    return is_leader() && token_free_;
  }

 private:
  friend class StabilityPlane;
  friend class Attachments;
  friend class SnapshotTransfer;
  friend class ViewSync;

  // --- MQ intake -------------------------------------------------------------
  void enqueue_local_op(MembershipOp op);
  /// Correlated batch intake: stamps and inserts every op, then kicks the
  /// round engine ONCE — the whole batch rides a single token round
  /// instead of the first op racing a round out ahead of the rest.
  void enqueue_local_ops(std::vector<MembershipOp> ops);
  void enqueue_op(MembershipOp op, Contributor contributor);
  /// Intake tail: meters aggregation, kicks rounds.
  void after_insert(std::uint64_t collapsed_before);
  void send_holder_ack(NodeId to, std::vector<std::uint64_t> notify_ids);
  void on_mq_activity();
  /// A member op born here (fresh seq and uid, the status `kind` implies)
  /// asserting or ending the attachment epoch `claim_seq`.
  MembershipOp member_op(OpKind kind, GroupId gid, Guid mh, NodeId ap,
                         std::uint64_t claim_seq);
  /// An NE join / leave op born at this leader for `contributor`.
  void enqueue_ne_op(OpKind kind, NodeId ne, Contributor contributor);
  std::uint64_t next_op_seq();
  std::uint64_t next_op_uid();
  std::uint64_t next_round_id();
  std::uint64_t next_notify_id();
  /// dir_.import_all, metering any groups it created.
  bool import(const std::vector<TableEntry>& entries);
  /// Meters directory growth (metrics_.groups_created).
  void note_group_count();

  // --- round engine ----------------------------------------------------------
  void request_token();
  void send_token_request();
  void clear_ring_state();
  void handle_token_request(const TokenRequestMsg& msg, NodeId from);
  void handle_token_grant(const TokenGrantMsg& msg);
  void handle_token_release(const TokenReleaseMsg& msg);
  void start_round(std::uint64_t round_id);
  void start_probe_round();
  void handle_token(TokenMsg msg, NodeId from);
  void apply_ops_and_notify(const Token& token);
  void complete_round(const Token& token);
  void grant_next();
  /// Leader: takes the free token for a fresh round; returns its id.
  std::uint64_t take_token();
  void arm_round_watchdog(std::uint64_t round_id);
  /// Holder-side round watchdog: a round whose token is lost downstream
  /// (e.g. the next hop crashed with the token after acking it) would
  /// otherwise leave the holder blocked and the leader's token permanently
  /// unavailable. On expiry the round is abandoned and its ops re-enter
  /// the MQ — rounds are at-least-once; op application is seq-idempotent.
  void arm_holder_watchdog(std::uint64_t round_id);
  void abandon_round(std::uint64_t round_id);

  // --- acked sends -----------------------------------------------------------
  /// Sends `pending` (again, unchanged) and arms its retransmission timer.
  void transmit(PendingSend& pending, sim::Duration timeout,
                std::function<void()> on_timeout);
  void send_token_to(NodeId target, Token token);
  void send_hop(std::uint64_t round_id, PendingSend& hop);
  void handle_token_pass_ack(const TokenPassAckMsg& msg);
  void on_token_retx_timeout(std::uint64_t round_id);

  // --- repair, reforms & rosters ---------------------------------------------
  /// Applies an almost-everywhere cut as ONE batched reconfiguration: every
  /// suspect still in the roster is spliced in a single pass — one
  /// RepairMsg broadcast, at most one leader failover, and one batched MQ
  /// flush of the NE-Failure + stranded Member-Failure ops (all stamped
  /// through the claim_seq lattice), so a crashed ring or regional outage
  /// costs one view change instead of N cascading repair rounds.
  void declare_cut(const std::vector<NodeId>& suspects);
  void handle_repair(const RepairMsg& msg);
  void apply_ne_op(const MembershipOp& op);
  /// Elects the leader of the spliced roster after `departed` led it;
  /// `counted` meters the failover (an NE-Failure op applied without the
  /// RepairMsg does not).
  void replace_leader(NodeId departed, bool counted);
  void recompute_pointers();
  void adopt_leadership();
  /// Splices `node` out of the roster and consumes the pending stability
  /// evidence about it (cut, RepairMsg and NE op alike).
  void remove_from_roster(NodeId node);
  /// The shape install that reform, shape adoption and merge share: roster,
  /// its index, leader and pointers; `remember` adds the members to
  /// known_peers_ (merge does not).
  void install_shape(std::vector<NodeId> roster, NodeId leader,
                     bool remember);
  /// After a reform or merge: a leader re-derives whether its token is free
  /// (arming the reclaim watchdog for a token out in a round it does not
  /// hold) and tells its parent; a follower's token is never free.
  void settle_token();
  /// Adopts a ring shape a leader's kSummary carried (the convergent
  /// stand-in for a lost reform; a leader's token state is left alone).
  void adopt_shape(NodeId from, const std::vector<NodeId>& roster,
                   NodeId leader);
  void merge_fragment(const std::vector<NodeId>& their_roster,
                      const std::vector<TableEntry>& entries);
  void handle_ring_reform(const RingReformMsg& msg, NodeId from);
  void handle_child_rebind(const ChildRebindMsg& msg);
  /// Tells the parent that `leader` now leads this ring.
  void rebind_parent(NodeId leader);
  void broadcast_ring_reform(const std::vector<NodeId>& roster,
                             NodeId leader);
  /// Machinery re-arm shared by the heal paths (reform, shape adoption,
  /// merge, crash recovery): timers that died in a crash window are
  /// re-armed, request chains aimed at a replaced leader are reset so
  /// queued ops flow through the new ring immediately, and the AP's
  /// claims are reconciled against the healed view.
  void rearm_after_reconfigure();

  // --- inter-ring notifications ----------------------------------------------
  void send_notify(NodeId dest, std::vector<MembershipOp> ops, bool downward);
  void handle_notify(const NotifyMsg& msg, NodeId from);
  void handle_holder_ack(const HolderAckMsg& msg);
  void on_notify_retx_timeout(std::uint64_t notify_id);

  // --- NE join/leave, queries, probing ---------------------------------------
  void handle_ne_join_request(const NeJoinRequestMsg& msg);
  void handle_ne_leave_request(const NeLeaveRequestMsg& msg);
  void handle_query(const QueryRequestMsg& msg, NodeId from);
  void on_probe_tick();

  // --- identity & config -----------------------------------------------------
  NeRole role_;
  int tier_;
  const RgbConfig& config_;
  RgbMetrics& metrics_;
  obs::ProtocolObs& obs_;

  // --- paper data structure (Section 4.2) ------------------------------------
  NodeId leader_;
  NodeId previous_;
  NodeId next_;
  NodeId parent_;
  NodeId child_;
  bool ring_ok_ = false;
  bool parent_ok_ = false;
  bool child_ok_ = false;
  /// Per-group {MemberTable, MessageQueue} state behind the shared engine:
  /// probe ticks, token rounds, stability and reconcile run once per link
  /// and route group-scoped reads/writes through here.
  GroupDirectory dir_;
  /// dir_.group_count() at the last note_group_count().
  std::size_t known_group_count_ = 0;

  /// Ring order as known locally (repaired views may lag one round), with
  /// an O(1) membership index.
  std::vector<NodeId> roster_;
  std::unordered_set<NodeId> roster_set_;
  /// Full historical roster — merge candidates after fragmentation — in
  /// deterministic merge-probe order, with its membership index.
  std::vector<NodeId> known_peers_;
  std::unordered_set<NodeId> known_peers_set_;

  [[nodiscard]] bool in_roster(NodeId n) const {
    return roster_set_.count(n) != 0;
  }
  /// Appends `n` to known_peers_ unless already known.
  void remember_peer(NodeId n);

  // --- leader state ----------------------------------------------------------
  bool token_free_ = false;  ///< leader: token parked and grantable
  std::deque<NodeId> pending_grants_;
  std::uint64_t active_round_id_ = 0;
  sim::EventId round_watchdog_{};

  // --- holder state ----------------------------------------------------------
  std::uint64_t pending_leave_notify_id_ = 0;
  bool token_requested_ = false;
  sim::EventId request_retx_timer_{};
  int request_retx_count_ = 0;
  /// Last time the request chain made progress (sent a request); lets the
  /// probe tick tell a live chain from one whose timer died in a crash.
  sim::Time last_request_activity_ = 0;
  bool holding_round_ = false;
  std::uint64_t my_round_id_ = 0;
  std::vector<Contributor> round_contributors_;
  sim::EventId holder_watchdog_{};
  std::vector<MembershipOp> pending_round_ops_;

  /// A token received before this NE was configured: a fresh joiner can be
  /// visited by the admitting round before its RingReform arrives.
  std::optional<TokenMsg> stashed_token_;
  NodeId stashed_from_;

  /// In-flight token passes keyed by round id (one per round being
  /// forwarded/held: a node can be granted its own round while still
  /// awaiting the pass-ack of a round it forwarded).
  std::unordered_map<std::uint64_t, PendingSend> inflight_hops_;
  /// Unacknowledged notifications keyed by notify id.
  std::unordered_map<std::uint64_t, PendingSend> pending_notifies_;

  /// Ops already disseminated here (a notification whose Holder-Ack was
  /// lost is acked again, not re-propagated).
  common::BoundedIdSet disseminated_{8192};
  /// NE ops already applied here (roster edits are not idempotent).
  common::BoundedIdSet applied_ne_ops_{8192};
  /// Token rounds already processed here (guards against duplicate
  /// deliveries when a TokenPassAck is lost and the hop resent).
  common::BoundedIdSet recent_rounds_{1024};

  // --- probing ---------------------------------------------------------------
  std::unique_ptr<proto::PeriodicTimer> probe_timer_;
  /// Last probe tick seen; a gap of several periods means the ticks were
  /// suppressed by a crash window (timers of a crashed node die with it).
  sim::Time last_probe_tick_ = 0;
  /// Follower-side leader liveness: probe ticks with no ring traffic seen.
  /// After kIdleTicksBeforeLeaderCheck the follower requests the token, so
  /// a crashed leader of a *quiet* ring is detected through the standard
  /// unanswered-request failover instead of never.
  std::uint32_t idle_probe_ticks_ = 0;
  static constexpr std::uint32_t kIdleTicksBeforeLeaderCheck = 4;

  // --- counters --------------------------------------------------------------
  std::uint64_t op_seq_counter_ = 0;
  std::uint64_t op_uid_counter_ = 0;
  std::uint64_t round_counter_ = 0;
  std::uint64_t notify_counter_ = 0;

  // --- components (declared last: they hold a reference to the core) ---------
  StabilityPlane stability_{*this};
  Attachments attachments_{*this};
  SnapshotTransfer snapshots_{*this};
  ViewSync view_sync_{*this};
};

}  // namespace rgb::core
