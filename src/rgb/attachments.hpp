// The AP's attachment claims and the machinery that keeps them true: the
// NE component that owns which members are attached *here*, re-affirms
// them against the tables, reconciles them after a heal, and watches the
// members' heartbeats for faulty disconnections (paper Section 1). Handles
// kReconcile, kReconcileAck and kMhHeartbeat.
//
// Claims. The authoritative attachment list of this AP: members that
// joined or handed off here and have not left, failed or handed off away,
// each keyed to the *attachment epoch* of our claim (the claim_seq of the
// physical join/handoff-in op; repair re-anchors never bump it). When a
// foreign record reaches us for one of these members, epochs decide: a
// record of a NEWER epoch proves the member attached elsewhere after our
// claim — we stop claiming; a record that ended OUR epoch without going
// through us is a false accusation (failure-detector false positive
// elsewhere) and the AP re-anchors the epoch with a fresh op — the hosting
// AP, not the accuser, has the ground truth; anything else is outwaited
// (our claim assertion is in flight and out-ranks it in record_precedes
// order). Checked from the probe tick and from reconcile-round replies.
//
// A reaffirmation pass reads only the claims and the tables, so after a
// pass that re-announced nothing, the next pass can only conclude "no
// departures, no re-anchors" until the directory's change counter or the
// claim set moves (a departure the pass drops edits the claims, which
// re-arms the next pass too). The steady tick then skips the per-claim
// lookups.
//
// Reconcile round (kReconcile). When a ring merge / reform / shape
// adoption completes — or a crash window is detected on recovery — the
// heal may have imported cross-partition records that falsify or supersede
// this AP's claims, and this AP's own ops may have been shadowed on the
// other side. The round makes the repair an explicit acked protocol phase:
// the AP asserts its claims to its ring leader (leaders: to their parent),
// the responder returns every table entry that out-ranks a claim, and the
// asker re-evaluates — superseded epochs are dropped, falsified ones
// re-anchored with a fresh op through the normal round machinery.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "proto/process.hpp"
#include "rgb/messages.hpp"
#include "rgb/types.hpp"

namespace rgb::core {

class NetworkEntity;

class Attachments {
 public:
  explicit Attachments(NetworkEntity& ne) : ne_(ne) {}
  Attachments(const Attachments&) = delete;  // timers hold its address
  Attachments& operator=(const Attachments&) = delete;

  /// The single writer of local_attached_: sets `mh`'s claim in `gid` to
  /// `claim_seq`, or erases it when `claim_seq` is 0 (dropping `mh` once it
  /// holds no claim). Returns the epoch it replaced, 0 when there was none.
  /// Any edit re-arms the reaffirmation pass.
  std::uint64_t set_claim(Guid mh, GroupId gid, std::uint64_t claim_seq);
  /// The epoch a departure op of `mh` in `gid` ends: our own claim when we
  /// hold one (erased — the member is no longer ours in this group), else
  /// whatever epoch the group's table reflects (a departure injected for a
  /// member we never claimed).
  std::uint64_t take_claim(GroupId gid, Guid mh);
  /// A handoff away from this AP is authoritative departure evidence:
  /// without it, a racing (false) failure record could hide the member's
  /// new attachment and trick reaffirmation into re-claiming a member that
  /// physically moved. Keyed per (member, group) — the member moved in
  /// THAT group only — and guarded by the claim epoch: a stale handoff-away
  /// replayed after the member re-attached here must not drop the newer
  /// claim.
  void on_handoff_away(const MembershipOp& op);
  /// Re-checks every claim against the tables (see the header comment).
  void reaffirm();
  /// Debounced start of a reconcile round (a heal path completed).
  void schedule_reconcile();
  /// Drops the scheduled and in-flight reconcile exchanges (the NE left its
  /// ring).
  void cancel_reconcile();

  void handle_reconcile(const ReconcileMsg& msg, NodeId from);
  void handle_reconcile_ack(const ReconcileAckMsg& msg);
  void handle_mh_heartbeat(const MhHeartbeatMsg& msg, NodeId from);

 private:
  /// The claims as (member, group, epoch) triples, (guid, gid)-sorted.
  [[nodiscard]] std::vector<AttachClaim> local_claims() const;
  void run_reconcile_round();
  void on_reconcile_timeout(std::uint64_t reconcile_id);
  void sweep_silent_members();
  /// Batch-fails every deferred silent member whose window expired.
  void flush_silent_members();
  /// Ends every claim this AP holds for silent member `mh` (the claims,
  /// not the table: a join or handoff-in still queued for the token counts)
  /// and returns one kMemberFail per claimed group, recording one
  /// detection. Empty when `mh` is not claimed here any more.
  std::vector<MembershipOp> silent_member_fail_ops(Guid mh,
                                                   sim::Time last_heard);

  NetworkEntity& ne_;
  /// guid-major, gid-minor (both std::map: deterministic iteration for the
  /// reaffirmation / reconcile passes); one claim per (member, group).
  std::map<Guid, std::map<GroupId, std::uint64_t>> local_attached_;
  /// Reaffirmation gate: true when the claims moved or the last pass
  /// re-announced; `reaffirmed_at_` is dir_.change_count() at that pass.
  bool reaffirm_due_ = true;
  std::uint64_t reaffirmed_at_ = 0;

  sim::EventId reconcile_timer_{};
  std::unordered_map<std::uint64_t, PendingSend> pending_reconciles_;
  std::uint64_t reconcile_counter_ = 0;

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
};

}  // namespace rgb::core
