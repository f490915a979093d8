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
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <map>

#include "obs/obs.hpp"
#include "proto/process.hpp"
#include "rgb/group_directory.hpp"
#include "rgb/member_table.hpp"
#include "rgb/message_queue.hpp"
#include "rgb/messages.hpp"
#include "rgb/metrics.hpp"
#include "rgb/stability.hpp"
#include "rgb/types.hpp"

namespace rgb::core {

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

  /// Claims this AP currently asserts (tests / reconcile introspection):
  /// (member, group, attachment-epoch) triples, (guid, gid)-sorted.
  [[nodiscard]] std::vector<AttachClaim> local_claims() const;

  // --- dynamic NE membership (Section 4.3) -----------------------------------

  /// Asks `ring_leader` to admit this NE into its ring.
  void request_ring_join(NodeId ring_leader);

  /// Gracefully leaves the ring (NE-Leave op disseminated first).
  void request_ring_leave();

  /// Forms a singleton ring with this NE as leader (the paper's fallback
  /// when no APR can be contacted).
  void form_singleton_ring();

  // --- endpoint ---------------------------------------------------------------

  void deliver(const net::Envelope& env) override;

  // --- introspection (tests, benches, facade) ---------------------------------

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

  /// The paper's ListOfRingMembers for the NE's configured default group
  /// (config.gid): all members within the coverage of this NE's ring. The
  /// pre-v4 single-group view — multi-group callers go through directory().
  [[nodiscard]] const MemberTable& ring_members() const {
    static const MemberTable kEmptyTable;
    const MemberTable* table = dir_.table_if(config_.gid);
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

  [[nodiscard]] bool queue_empty() const { return dir_.queue_empty(); }
  [[nodiscard]] std::size_t queue_size() const { return dir_.queue_size(); }
  [[nodiscard]] bool round_in_flight() const { return holding_round_; }
  [[nodiscard]] bool token_parked_here() const {
    return is_leader() && token_free_;
  }

 private:
  // --- MQ intake -------------------------------------------------------------
  void enqueue_local_op(MembershipOp op);
  /// Correlated batch intake: stamps and inserts every op, then kicks the
  /// round engine ONCE — the whole batch rides a single token round
  /// instead of the first op racing a round out ahead of the rest.
  void enqueue_local_ops(std::vector<MembershipOp> ops);
  void enqueue_op(MembershipOp op, Contributor contributor);
  void on_mq_activity();
  std::uint64_t next_op_seq();
  std::uint64_t next_op_uid();
  std::uint64_t next_round_id();
  std::uint64_t next_notify_id();

  // --- round engine ----------------------------------------------------------
  void request_token();
  void send_token_request();
  void clear_ring_state();
  void handle_token_request(const TokenRequestMsg& msg, NodeId from);
  void handle_token_grant(const TokenGrantMsg& msg);
  void handle_token_release(const TokenReleaseMsg& msg, NodeId from);
  void start_round(std::uint64_t round_id);
  void start_probe_round();
  void handle_token(TokenMsg msg, NodeId from);
  void apply_ops_and_notify(const Token& token);
  void complete_round(const Token& token);
  void release_token_to_leader();
  void grant_next();
  void arm_round_watchdog(std::uint64_t round_id);

  // --- reliable token pass -----------------------------------------------------
  void send_token_to(NodeId target, Token token);
  void handle_token_pass_ack(const TokenPassAckMsg& msg);

  // --- repair & rosters ---------------------------------------------------------
  /// Single-suspect wrapper around declare_cut (the pre-stability detector
  /// verdict and the stability-timeout fallback path).
  void declare_faulty_and_repair(NodeId faulty);
  /// Applies an almost-everywhere cut as ONE batched reconfiguration: every
  /// suspect still in the roster is spliced in a single pass — one
  /// RepairMsg broadcast, at most one leader failover, and one batched MQ
  /// flush of the NE-Failure + stranded Member-Failure ops (all stamped
  /// through the claim_seq lattice), so a crashed ring or regional outage
  /// costs one view change instead of N cascading repair rounds.
  void declare_cut(const std::vector<NodeId>& suspects);
  void handle_repair(const RepairMsg& msg, NodeId from);
  void apply_ne_op(const MembershipOp& op);
  [[nodiscard]] NodeId successor_of(NodeId node) const;
  [[nodiscard]] NodeId predecessor_of(NodeId node) const;
  void recompute_pointers();
  void adopt_leadership();
  void remove_from_roster(NodeId node);
  void handle_ring_reform(const RingReformMsg& msg, NodeId from);
  void handle_child_rebind(const ChildRebindMsg& msg, NodeId from);

  // --- inter-ring notifications ---------------------------------------------------
  void send_notifications(const std::vector<MembershipOp>& ops);
  void send_notify(NodeId dest, std::vector<MembershipOp> ops, bool downward);
  void handle_notify(const NotifyMsg& msg, NodeId from);
  void handle_holder_ack(const HolderAckMsg& msg);
  void on_notify_retx_timeout(std::uint64_t notify_id);

  // --- probing & merge (extension) ---------------------------------------------
  void on_probe_tick();
  void anti_entropy_tick();
  void handle_view_sync(const ViewSyncMsg& msg, NodeId from);
  void attempt_merge();
  void merge_fragment(const std::vector<NodeId>& their_roster,
                      const std::vector<TableEntry>& entries);
  void handle_merge_offer(const MergeOfferMsg& msg, NodeId from);
  void handle_merge_accept(const MergeAcceptMsg& msg, NodeId from);

  // --- NE join/leave -----------------------------------------------------------
  void handle_ne_join_request(const NeJoinRequestMsg& msg, NodeId from);
  void handle_ne_leave_request(const NeLeaveRequestMsg& msg, NodeId from);
  void broadcast_ring_reform(const std::vector<NodeId>& roster,
                             NodeId leader);

  // --- snapshot state transfer (kSnapshot bulk-join path) ----------------------
  // Under config.snapshot_join the per-op downward dissemination is
  // replaced by debounced framed MemberTable snapshots: NEs that applied
  // fresh member state mark themselves dirty; after kSnapshotFlushQuiet
  // with no further change they push one wire-encoded snapshot to their
  // child ring leader (and, when they learned the state *from* a snapshot
  // rather than a token round, across their own ring if they lead it).
  // Receivers digest-check, decode the blob through the wire codec and
  // import monotonically, so a duplicated, reordered or stale snapshot can
  // never regress a view; a corrupted one is rejected cleanly and counted.
  void schedule_snapshot_flush(bool to_ring, bool to_child);
  void flush_snapshot();
  [[nodiscard]] SnapshotMsg make_snapshot_msg() const;
  /// The current table as an encoded, shareable kSnapshot payload —
  /// rebuilt only when the table digest moved, so flush fan-outs,
  /// request replies and the ack-driven retx loop all share one O(N)
  /// encode (and one allocation) per table state instead of re-encoding
  /// per destination per timeout.
  const net::Payload& snapshot_payload();
  void request_snapshot_from(NodeId peer);
  void handle_snapshot_request(const SnapshotRequestMsg& msg, NodeId from);
  void handle_snapshot(const SnapshotMsg& msg, NodeId from);
  void handle_snapshot_ack(const SnapshotAckMsg& msg, NodeId from);
  void on_snapshot_push_timeout(NodeId dest);

  // --- post-heal reconciliation round (kReconcile) -----------------------------
  // When a ring merge / reform / shape adoption completes — or a crash
  // window is detected on recovery — the heal may have imported
  // cross-partition records that falsify or supersede this AP's
  // attachment claims, and this AP's own ops may have been shadowed on
  // the other side. The reconcile round makes the repair an explicit
  // acked protocol phase: the AP asserts its claims to its ring leader
  // (leaders: to their parent), the responder returns every table entry
  // that out-ranks a claim, and the asker re-evaluates — superseded
  // epochs are dropped, falsified ones re-anchored with a fresh op
  // through the normal round machinery.
  void schedule_reconcile();
  void run_reconcile_round();
  void handle_reconcile(const ReconcileMsg& msg, NodeId from);
  void handle_reconcile_ack(const ReconcileAckMsg& msg);
  void on_reconcile_retx_timeout(std::uint64_t reconcile_id);
  /// Machinery re-arm shared by the reconcile triggers: timers that died
  /// in a crash window are re-armed and request chains aimed at a
  /// replaced leader are reset so queued ops flow through the new ring
  /// immediately.
  void rearm_after_reconfigure();

  // --- queries -------------------------------------------------------------------
  void handle_query(const QueryRequestMsg& msg, NodeId from);

  void remember_disseminated(const std::vector<MembershipOp>& ops);
  [[nodiscard]] bool already_disseminated(std::uint64_t uid) const;

  // --- identity & config ---------------------------------------------------------
  NeRole role_;
  int tier_;
  const RgbConfig& config_;
  RgbMetrics& metrics_;
  obs::ProtocolObs& obs_;

  // --- paper data structure (Section 4.2) -----------------------------------------
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
  /// The last kFull this NE built, with the dir_.change_count() and scope
  /// it was built for and its wire_size. Reused while both are unchanged;
  /// dropped at every probe tick, so no kFull outlives its tick.
  struct FullReply {
    net::Payload payload;
    std::uint64_t changes = 0;
    std::vector<GroupId> gids;
    std::uint32_t bytes = 0;
  };
  std::optional<FullReply> last_full_;
  /// Meters directory growth (metrics_.groups_created): compared against
  /// dir_.group_count() after every mutation funnel.
  std::size_t known_group_count_ = 0;
  void note_group_count();

  /// Ring order as known locally; repaired views may lag one round.
  /// `roster_` is canonical (iteration order, pointer derivation);
  /// `roster_set_` indexes it for O(1) membership checks and is kept in
  /// sync by remove_from_roster/rebuild_roster_index and the few direct
  /// insertion sites.
  std::vector<NodeId> roster_;
  std::unordered_set<NodeId> roster_set_;
  /// Full historical roster — merge candidates after fragmentation. The
  /// vector is canonical (deterministic iteration order for merge
  /// probing); the set is its O(1) membership index.
  std::vector<NodeId> known_peers_;
  std::unordered_set<NodeId> known_peers_set_;
  std::unordered_set<NodeId> suspected_faulty_;

  [[nodiscard]] bool in_roster(NodeId n) const {
    return roster_set_.count(n) != 0;
  }
  /// Appends `n` to known_peers_ unless already known.
  void remember_peer(NodeId n);
  /// Rebuilds roster_set_ after roster_ was replaced wholesale.
  void rebuild_roster_index();

  // --- leader state -----------------------------------------------------------------
  bool token_free_ = false;  ///< leader: token parked and grantable
  std::deque<NodeId> pending_grants_;
  std::uint64_t active_round_id_ = 0;
  sim::EventId round_watchdog_{};

  // --- holder state ------------------------------------------------------------------
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
  /// Holder-side round watchdog: a round whose token is lost downstream
  /// (e.g. the next hop crashed with the token after acking it) would
  /// otherwise leave the holder blocked and the leader's token permanently
  /// unavailable. On expiry the round is abandoned and its ops re-enter
  /// the MQ — rounds are at-least-once; op application is seq-idempotent.
  sim::EventId holder_watchdog_{};
  std::vector<MembershipOp> pending_round_ops_;
  void arm_holder_watchdog(std::uint64_t round_id);
  void abandon_round(std::uint64_t round_id);

  // --- token received before this NE was configured (a fresh joiner can be
  // visited by the admitting round before its RingReform arrives) ----------
  std::optional<TokenMsg> stashed_token_;
  NodeId stashed_from_;

  // --- in-flight token passes (one per round being forwarded/held: a node
  // can be granted its own round while still awaiting the pass-ack of a
  // round it forwarded) ------------------------------------------------------
  struct InflightHop {
    Token token;
    NodeId target;
    int retx = 0;
    sim::EventId timer{};
  };
  std::unordered_map<std::uint64_t, InflightHop> inflight_hops_;
  void on_token_retx_timeout(std::uint64_t round_id);

  // --- notification reliability ----------------------------------------------------------
  struct PendingNotify {
    NodeId dest;
    std::vector<MembershipOp> ops;
    bool downward = false;
    int retx = 0;
    sim::EventId timer{};
  };
  std::unordered_map<std::uint64_t, PendingNotify> pending_notifies_;

  // --- dedup of disseminated ops ------------------------------------------------------------
  std::unordered_set<std::uint64_t> disseminated_;
  std::deque<std::uint64_t> disseminated_order_;
  static constexpr std::size_t kDisseminatedCap = 8192;

  // --- dedup of applied NE ops (roster edits are not idempotent) ---------------
  std::unordered_set<std::uint64_t> applied_ne_ops_;
  std::deque<std::uint64_t> applied_ne_ops_order_;

  // --- dedup of token rounds already processed at this node (guards against
  // duplicate deliveries when a TokenPassAck is lost and the hop resent) ----
  std::unordered_set<std::uint64_t> recent_rounds_;
  std::deque<std::uint64_t> recent_rounds_order_;
  static constexpr std::size_t kRecentRoundsCap = 1024;
  void remember_round(std::uint64_t round_id);

  // --- snapshot flush state ---------------------------------------------------
  sim::EventId snapshot_flush_timer_{};
  bool snapshot_dirty_ring_ = false;   ///< peers owed a push (leader only)
  bool snapshot_dirty_child_ = false;  ///< child ring leader owed a push
  /// Flush-edge reliability: one pending push per destination, cleared by
  /// the matching kSnapshotAck and retransmitted (with the then-current
  /// table) until acked or past the notify retx budget.
  struct PendingSnapshotPush {
    std::uint64_t digest = 0;
    std::uint64_t entry_count = 0;
    int retx = 0;
    sim::EventId timer{};
  };
  std::unordered_map<NodeId, PendingSnapshotPush> pending_snapshot_pushes_;
  /// snapshot_payload() cache: the encoded table keyed by its digest.
  net::Payload snapshot_payload_cache_;
  std::uint64_t snapshot_payload_digest_ = 0;
  std::uint64_t snapshot_payload_count_ = 0;
  std::uint32_t snapshot_payload_bytes_ = 0;
  bool snapshot_payload_valid_ = false;

  // --- reconcile round state ---------------------------------------------------
  sim::EventId reconcile_timer_{};
  struct PendingReconcile {
    NodeId dest;
    std::vector<AttachClaim> claims;
    int retx = 0;
    sim::EventId timer{};
  };
  std::unordered_map<std::uint64_t, PendingReconcile> pending_reconciles_;
  std::uint64_t reconcile_counter_ = 0;
  /// Last probe tick seen; a gap of several periods means the ticks were
  /// suppressed by a crash window — the recovery trigger of the
  /// reconcile round (timers of a crashed node die with it).
  sim::Time last_probe_tick_ = 0;

  // --- probing ----------------------------------------------------------------------------
  std::unique_ptr<proto::PeriodicTimer> probe_timer_;
  std::size_t merge_probe_cursor_ = 0;
  /// Follower-side leader liveness: probe ticks with no ring traffic seen.
  /// After kIdleTicksBeforeLeaderCheck the follower requests the token, so
  /// a crashed leader of a *quiet* ring is detected through the standard
  /// unanswered-request failover instead of never.
  std::uint32_t idle_probe_ticks_ = 0;
  static constexpr std::uint32_t kIdleTicksBeforeLeaderCheck = 4;

  // --- stability plane (multi-observer cut detection) --------------------------
  // With config.stability on, the three detector sites (token-hop retx
  // exhaustion, unanswered token requests, the silent-member sweep) no
  // longer declare on first observation. An NE suspect gets an *alert*:
  // sent to the ring leader's aggregator (leader-death: to the presumptive
  // next leader) and, as a liveness counter-check, to the suspect itself —
  // a live suspect's kAlertAck cancels the pending alert and retracts it
  // at the aggregator. The observer arms a stability_timeout fallback that
  // degrades to today's single-observer declare, so detection latency
  // stays bounded and liveness never regresses.
  void report_suspect(NodeId suspect);
  void raise_alert(NodeId suspect);
  void cancel_alert(NodeId suspect);
  void handle_alert(const AlertMsg& msg, NodeId from);
  void handle_alert_ack(const AlertAckMsg& msg, NodeId from);
  void on_alert_ping_timeout(NodeId suspect);
  void on_stability_fallback(NodeId suspect, std::uint64_t alert_id);
  /// Aggregator intake + fire check (this NE hosts the cut decision).
  void observe_alert(NodeId suspect, NodeId observer);
  void check_stability_cut();
  void arm_stability_cut_timer();
  /// Deadline-path cuts verify first: an alert whose observer-side
  /// retraction was lost would otherwise fire a single-observation cut at
  /// the window deadline. The aggregator pings each pending suspect with
  /// the normal alert/ack exchange (retx budget as any hop); an answer
  /// forgets the suspect, silence lets the cut proceed. Returns true when
  /// any verification was started by this call.
  bool start_cut_verifications();
  [[nodiscard]] bool cut_verifies_in_flight() const;
  void on_verify_ping_timeout(NodeId suspect);
  void cancel_cut_verification(NodeId suspect);
  /// Cancels every pending alert and pending cut (ring reconfigured: the
  /// evidence predates the new shape; live detectors re-alert).
  void reset_stability_state();

  /// One alert this NE raised and has not resolved, keyed by suspect.
  struct PendingAlert {
    std::uint64_t alert_id = 0;
    NodeId aggregator;           ///< where the alert was filed
    sim::EventId ping_timer{};   ///< liveness ping retx cadence
    sim::EventId fallback_timer{};
  };
  std::unordered_map<NodeId, PendingAlert> pending_alerts_;
  StabilityAggregator stability_;
  sim::EventId stability_cut_timer_{};
  std::uint64_t alert_counter_ = 0;
  /// Aggregator-side pre-cut liveness verification, keyed by suspect. An
  /// entry with `expired == true` failed verification and no longer blocks
  /// the cut (and is not re-verified).
  struct PendingVerify {
    std::uint64_t alert_id = 0;
    int pings_left = 0;          ///< remaining retransmissions
    bool expired = false;
    sim::EventId ping_timer{};
  };
  std::map<NodeId, PendingVerify> pending_verifies_;

  // --- MH liveness monitoring (faulty-disconnection detection) ----------------
  void handle_mh_heartbeat(const MhHeartbeatMsg& msg, NodeId from);
  void sweep_silent_members();
  /// Batch-fails every deferred silent member whose window expired.
  void flush_silent_members();
  /// Ends every claim this AP holds for silent member `mh` (the claims,
  /// not the table: a join or handoff-in still queued for the token counts)
  /// and returns one kMemberFail per claimed group, recording one
  /// detection. Empty when `mh` is not claimed here any more.
  std::vector<MembershipOp> silent_member_fail_ops(Guid mh,
                                                   sim::Time last_heard);
  /// Last heartbeat per attached member, plus the MH's network address so
  /// the stability layer can counter-probe a silent member.
  struct MhLiveness {
    sim::Time last_heard = 0;
    NodeId mh_node;
  };
  std::unordered_map<Guid, MhLiveness> mh_last_heard_;
  std::unique_ptr<proto::PeriodicTimer> mh_sweep_timer_;
  sim::Time last_mh_sweep_ = 0;
  /// Recovery time of the last crash window the sweep noticed: no member
  /// counts as silent for longer than it has been monitored since.
  sim::Time mh_monitored_since_ = 0;
  /// Stability-deferred silent members: instead of failing on the sweep
  /// that notices the silence, the member enters this window; a heartbeat
  /// (often provoked by the counter-probe) cancels it, and everything
  /// whose window expired is batch-failed in ONE MQ flush.
  struct PendingSilent {
    sim::Time last_heard = 0;
    sim::Time deferred_at = 0;
    NodeId mh_node;
  };
  std::unordered_map<Guid, PendingSilent> pending_silent_;

  // --- local-member re-affirmation ------------------------------------------
  // The authoritative attachment list of this AP: members that joined or
  // handed off here and have not left, failed or handed off away, each
  // keyed to the *attachment epoch* of our claim (the claim_seq of the
  // physical join/handoff-in op; repair re-anchors never bump it). When a
  // foreign record reaches us for one of these members, epochs decide:
  // a record of a NEWER epoch proves the member attached elsewhere after
  // our claim — we stop claiming; a record that ended OUR epoch without
  // going through us is a false accusation (failure-detector false
  // positive elsewhere) and the AP re-anchors the epoch with a fresh op —
  // the hosting AP, not the accuser, has the ground truth; anything else
  // is outwaited (our claim assertion is in flight and out-ranks it in
  // record_precedes order). Checked from the probe tick and from
  // reconcile-round replies.
  //
  // A pass reads only the claims and the tables, so after a pass that
  // re-announced nothing, the next pass can only conclude "no departures,
  // no re-anchors" until the directory's change counter or the claim set
  // moves (a departure the pass drops edits the claims, which re-arms the
  // next pass too). The steady tick then skips the per-claim lookups.
  void reaffirm_local_members();
  void reannounce_member(GroupId gid, Guid mh, std::uint64_t claim_seq);
  std::uint64_t take_local_claim(GroupId gid, Guid mh);
  /// The single writer of local_attached_: sets `mh`'s claim in `gid` to
  /// `claim_seq`, or erases it when `claim_seq` is 0 (dropping `mh` once it
  /// holds no claim). Returns the epoch it replaced, 0 when there was none.
  /// Any edit re-arms the reaffirmation pass.
  std::uint64_t set_claim(Guid mh, GroupId gid, std::uint64_t claim_seq);
  /// guid-major, gid-minor (both std::map: deterministic iteration for the
  /// reaffirmation / reconcile passes); one claim per (member, group).
  std::map<Guid, std::map<GroupId, std::uint64_t>> local_attached_;
  /// Reaffirmation gate: true when the claims moved or the last pass
  /// re-announced; `reaffirmed_at_` is dir_.change_count() at that pass.
  bool reaffirm_due_ = true;
  std::uint64_t reaffirmed_at_ = 0;

  // --- counters ---------------------------------------------------------------------------
  std::uint64_t op_seq_counter_ = 0;
  std::uint64_t op_uid_counter_ = 0;
  std::uint64_t round_counter_ = 0;
  std::uint64_t notify_counter_ = 0;
};

}  // namespace rgb::core
