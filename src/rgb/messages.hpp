// Wire messages of the RGB protocol and their metering kinds.
//
// Metering follows the paper's accounting (Section 5.1): only
// proposal-carrying traffic — token hops and inter-ring notifications — is
// counted in the HopCount comparison; token acquisition, per-hop acks,
// holder acknowledgements and MH requests are control traffic, metered
// under separate kinds so benches can include or exclude them explicitly.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "rgb/member_table.hpp"
#include "rgb/types.hpp"
#include "sim/simulator.hpp"

namespace rgb::core {

/// Metering categories (net::MessageKind values).
namespace kind {
// Proposal-plane: these are the "message hops" of formula (5)/(6).
inline constexpr net::MessageKind kToken = 1;         ///< token circulation hop
inline constexpr net::MessageKind kNotifyParent = 2;  ///< leader -> parent MQ
inline constexpr net::MessageKind kNotifyChild = 3;   ///< NE -> child-ring MQ
// Control-plane (uncounted by the paper's model).
inline constexpr net::MessageKind kTokenPassAck = 10;
inline constexpr net::MessageKind kTokenRequest = 11;
inline constexpr net::MessageKind kTokenGrant = 12;
inline constexpr net::MessageKind kTokenRelease = 13;
inline constexpr net::MessageKind kHolderAck = 14;
inline constexpr net::MessageKind kRepair = 15;
inline constexpr net::MessageKind kChildRebind = 16;
inline constexpr net::MessageKind kProbe = 17;
inline constexpr net::MessageKind kProbeAck = 18;
inline constexpr net::MessageKind kMergeOffer = 19;
inline constexpr net::MessageKind kMergeAccept = 20;
inline constexpr net::MessageKind kRingReform = 21;
inline constexpr net::MessageKind kNeJoinRequest = 22;
inline constexpr net::MessageKind kNeLeaveRequest = 23;
inline constexpr net::MessageKind kViewSync = 24;
inline constexpr net::MessageKind kSnapshotRequest = 25;
inline constexpr net::MessageKind kSnapshot = 26;
inline constexpr net::MessageKind kReconcile = 27;
inline constexpr net::MessageKind kReconcileAck = 28;
inline constexpr net::MessageKind kSnapshotAck = 29;
// Stability plane (multi-observer cut detection; also uncounted).
inline constexpr net::MessageKind kAlert = 33;
inline constexpr net::MessageKind kAlertAck = 34;
// Edge-plane (MH <-> AP wireless traffic; also uncounted).
inline constexpr net::MessageKind kMhRequest = 30;
inline constexpr net::MessageKind kMhAck = 31;
inline constexpr net::MessageKind kMhHeartbeat = 32;
// Query-plane.
inline constexpr net::MessageKind kQueryRequest = 40;
inline constexpr net::MessageKind kQueryReply = 41;

/// True for kinds the Table-I hop count includes.
[[nodiscard]] constexpr bool is_proposal_kind(net::MessageKind k) {
  return k == kToken || k == kNotifyParent || k == kNotifyChild;
}
}  // namespace kind

/// An acked send (token hop, notification, reconcile request): the message
/// as first built, resent unchanged until the ack or the retx budget ends it.
struct PendingSend {
  NodeId dest;
  net::MessageKind kind = 0;
  net::Payload payload;
  std::uint32_t bytes = 0;
  int retx = 0;
  sim::EventId timer{};
};

// --- ring plane -------------------------------------------------------------

struct TokenMsg {
  Token token;
};

/// Immediate per-hop receipt ack (reliability of the token pass).
struct TokenPassAckMsg {
  std::uint64_t round_id;
};

/// Asks the ring leader for permission to start a round.
struct TokenRequestMsg {
  NodeId requester;
  /// Set when the requester believes the recipient just became leader
  /// (previous leader declared faulty by the requester).
  bool leadership_claim = false;
};

struct TokenGrantMsg {
  std::uint64_t round_id;
};

struct TokenReleaseMsg {
  std::uint64_t round_id;
};

// --- inter-ring plane --------------------------------------------------------

/// Notification-to-Parent / Notification-to-Child: inserts `ops` into the
/// destination NE's MQ. `notify_id` keys the Holder-Acknowledgement.
struct NotifyMsg {
  std::vector<MembershipOp> ops;
  std::uint64_t notify_id = 0;
  bool downward = false;  ///< true: parent-ring NE -> child-ring leader
};

/// Figure 3 lines 17-20: the holder acknowledges the NEs whose
/// notifications were carried by the completed round.
struct HolderAckMsg {
  std::vector<std::uint64_t> notify_ids;
};

// --- maintenance plane --------------------------------------------------------

/// Informs `dst` that its ring-predecessor is now `new_previous` (after a
/// faulty node was spliced out), and optionally hands it the in-flight
/// token.
struct RepairMsg {
  NodeId new_previous;
  std::vector<NodeId> faulty;  ///< nodes declared faulty by the repairer
};

/// Multi-observer failure alert (stability layer). Two uses share the
/// type, told apart by destination:
///  * observer -> aggregating leader: "I suspect `suspects`" (or, with
///    `retract`, "I observed liveness — cancel my alert");
///  * observer -> suspect: a liveness ping; a live suspect answers
///    kAlertAck, which is the counter-observation cancelling the alert.
struct AlertMsg {
  NodeId observer;
  std::uint64_t alert_id = 0;     ///< per-observer, keys the ack/retraction
  std::vector<NodeId> suspects;   ///< implicated nodes (usually one)
  bool retract = false;           ///< liveness counter-evidence: unsuspect
};

/// A pinged suspect's proof of life: echoes the observer's alert id so the
/// observer can cancel exactly the pending alert that pinged it.
struct AlertAckMsg {
  NodeId responder;
  std::uint64_t alert_id = 0;
};

/// Tells a parent NE that the leader of its child ring changed.
struct ChildRebindMsg {
  NodeId new_child_leader;
};

struct ProbeAckMsg {
  std::uint64_t probe_id;
};

/// Partition-merge handshake (paper future work, implemented as extension).
/// Member views travel as seq-keyed TableEntry lists so reconciliation is
/// monotone: a reform or merge can never regress a receiver's record below
/// what a newer op already established (a raw-record upsert would stomp
/// the record while keeping the local sequence — silently poisoning the
/// entry against every future sync).
struct MergeOfferMsg {
  std::vector<NodeId> roster;      ///< offering fragment's alive roster
  std::vector<TableEntry> entries; ///< offering fragment's member view
};

struct MergeAcceptMsg {
  std::vector<NodeId> roster;
  std::vector<TableEntry> entries;
};

/// Re-baselines a ring member after a merge, a dynamic join, or recovery:
/// full roster, leader, and the current member view.
struct RingReformMsg {
  std::vector<NodeId> roster;
  NodeId leader;
  std::vector<TableEntry> entries;
};

/// Anti-entropy view reconciliation (extension), digest-first. Leaders emit
/// these on probe ticks towards their ring, parent and child, which
/// restores views that lost notifications to crash/repair windows.
///
/// Five phases:
///  * kSummary — steady-state tick (multi-group): only the sender's
///    *combined* digest over every group. O(1) bytes per link per tick no
///    matter how many groups the hierarchy serves. A receiver whose own
///    combined digest matches does nothing; on mismatch it answers with a
///    kDigest carrying its packed per-group digests, pulling a scoped sync.
///  * kDigest — per-group digest exchange: the combined digest plus one
///    digest per non-empty group. A receiver whose combined digest matches
///    does nothing; on mismatch it compares per group and answers with a
///    kFull scoped to just the differing groups (empty packed set: a
///    universal kFull, the pre-v4 semantics). A differing group that both
///    ends hold more than ViewSync::kBucketThreshold records of goes down
///    one level instead: it rides a kBuckets frame, not the kFull.
///  * kBuckets — wire v5: the answer to a kDigest for large differing
///    groups, carrying the sender's kBucketCount bucket digests of each.
///    The receiver compares bucket by bucket and answers with a kFull
///    scoped to the buckets that differ; when none does (a collision at
///    group level), nothing.
///  * kFull   — the answer to a kDigest or a kBuckets: the sender's
///    seq-keyed view of the scoped groups or buckets. The receiver merges
///    monotonically and, when `reply_requested`, answers with a kDiff of
///    the entries it alone holds newer within the same scope — one bounded
///    diff, no cascading. No tick starts here.
///  * kDiff   — the bounded diff reply; merged, never answered.
struct ViewSyncMsg {
  enum class Phase : std::uint8_t { kFull, kDigest, kDiff, kSummary, kBuckets };
  Phase phase = Phase::kFull;
  /// kDigest only: the sender's *combined* digest over every group (gid
  /// mixed into each group's hash) and the total entry count — the O(1)
  /// "everything matches" fast path of a packed sync tick.
  std::uint64_t digest = 0;
  std::uint32_t entry_count = 0;
  std::vector<TableEntry> entries;  ///< empty in kDigest; gid-stamped
  bool reply_requested = false;
  /// kDigest only: one digest per non-empty group of the sender (wire v4
  /// digest packing). When the combined fast path misses, the receiver
  /// compares per group and answers a kFull scoped to just the groups that
  /// differ — so G groups cost one frame plus ~11B per group per link per
  /// tick instead of G frames.
  std::vector<GroupDigest> group_digests;
  /// kFull/kDiff: the groups this sync is scoped to. A kFull receiver
  /// restricts its kDiff reply to these, so a mismatch in one group never
  /// ships every group's view. Empty, with `bucket_scope` empty too =
  /// universal (pre-v4 semantics).
  std::vector<GroupId> sync_gids;
  /// kBuckets only (wire v5): the sender's bucket digests of each large
  /// group that differs.
  std::vector<GroupBuckets> group_buckets;
  /// kFull/kDiff (wire v5): the buckets of large groups this sync is
  /// scoped to, beside any whole groups in `sync_gids`. A kFull receiver
  /// restricts its kDiff reply to them, so one differing record ships one
  /// bucket of its group, not the group.
  std::vector<BucketScope> bucket_scope;
  /// When the sender is a ring leader syncing its ring, it also carries
  /// its (roster, leader) so ring reforms are *convergent*, not
  /// delivery-dependent: a member whose RingReform was lost (drop burst,
  /// crash window) adopts the ring shape from the next periodic sync.
  /// Empty roster / invalid leader on diff replies and cross-ring syncs.
  std::vector<NodeId> roster;
  NodeId leader;
};

/// Asks a peer for a framed member-table snapshot (the kSnapshot bulk
/// state-transfer path). Carries the requester's own table digest so an
/// already-in-sync peer answers nothing.
struct SnapshotRequestMsg {
  std::uint64_t digest = 0;      ///< requester's MemberTable::digest() hash
  std::uint64_t entry_count = 0;
};

/// One framed member-table state transfer: the sender's full view as *real
/// encoded bytes* (wire::encode_snapshot — version, count, guid-delta
/// entries). Unlike every other message in this simulator, the payload here
/// IS the wire format: the receiver decodes the blob through the codec, so
/// truncation/corruption handling is exercised end-to-end, and the metered
/// size is exact by construction. Sent on request (SnapshotRequestMsg, NE
/// joiners) and pushed by the debounced surge flush of the snapshot-join
/// mode (RgbConfig::snapshot_join).
struct SnapshotMsg {
  std::uint64_t digest = 0;  ///< digest of the encoded table; receivers
                             ///< whose own digest matches skip the decode
  std::uint64_t entry_count = 0;
  std::vector<std::uint8_t> blob;  ///< wire::encode_snapshot output
};

/// One attachment claim of a hosting AP: a locally-attached member and the
/// physical attachment epoch backing the claim (the MembershipOp::claim_seq
/// of the join / handoff-in that brought the member here).
struct AttachClaim {
  Guid mh;
  std::uint64_t claim_seq = 0;
  /// Group the claim is scoped to: one physical attachment is asserted per
  /// (group, guid) pair, since the member's record lives per group.
  GroupId gid;

  friend bool operator==(const AttachClaim&, const AttachClaim&) = default;
};

/// Post-heal re-anchoring round, request side: after a ring merge / reform
/// completes (or on recovery from a crash window), a hosting AP asserts
/// its attachment claims to its ring leader — leaders assert to their
/// parent — which checks every claim against the merged table. The
/// exchange is acked (kReconcileAck) and retransmitted, making the re-
/// anchor an explicit protocol phase instead of a hope that anti-entropy
/// eventually repairs false-failure records.
struct ReconcileMsg {
  std::uint64_t reconcile_id = 0;
  std::vector<AttachClaim> claims;  ///< guid-ascending
};

/// Re-anchoring round, reply side: `superseding` carries the responder's
/// table entry for every claim whose assertion its merged view out-ranks
/// in record_precedes order (epochs ended elsewhere, or falsified by a
/// cross-partition splice). The asker imports them and re-evaluates its
/// claims: superseded epochs are dropped, falsified ones re-anchored with
/// a fresh op through the normal round machinery. Claims absent from the
/// list stand as asserted.
struct ReconcileAckMsg {
  std::uint64_t reconcile_id = 0;
  std::vector<TableEntry> superseding;
};

/// Receipt ack of one kSnapshot push (flush-edge reliability): echoes the
/// digest of the received snapshot so the sender can clear the matching
/// pending push; an unacked flush push is retransmitted, closing the
/// fire-and-forget gap of the bulk-join state transfer.
struct SnapshotAckMsg {
  std::uint64_t digest = 0;
  std::uint64_t entry_count = 0;
};

/// A lone NE asks a ring leader to admit it (Section 4.3 join process).
struct NeJoinRequestMsg {
  NodeId joiner;
  std::uint64_t notify_id = 0;  ///< acked via HolderAck like a notification
};

/// A ring member asks the leader to disseminate its graceful departure.
struct NeLeaveRequestMsg {
  NodeId leaver;
  std::uint64_t notify_id = 0;
};

// --- edge plane ---------------------------------------------------------------

enum class MhRequestKind : std::uint8_t { kJoin, kLeave, kHandoff, kFail };

struct MhRequestMsg {
  MhRequestKind kind;
  Guid mh;
  NodeId old_ap;  ///< handoff only
  /// Group the request targets. Invalid = the AP's configured default group
  /// (single-group MHs predating v4 keep working unchanged).
  GroupId gid;
};

struct MhAckMsg {
  MhRequestKind kind;
  Guid mh;
  GroupId gid;  ///< echoes the request's group
};

/// Liveness beacon from an attached MH; silence beyond
/// RgbConfig::mh_failure_timeout is a faulty disconnection.
struct MhHeartbeatMsg {
  Guid mh;
};

// --- query plane ----------------------------------------------------------------

struct QueryRequestMsg {
  std::uint64_t query_id;
  NodeId reply_to;
  /// Group the query asks about. Invalid = merged view across every group
  /// the responder serves, deduplicated by guid (the pre-v4 semantics the
  /// facade's scheme-comparison queries still use).
  GroupId gid;
};

struct QueryReplyMsg {
  std::uint64_t query_id;
  std::vector<MemberRecord> members;
};

// --- wire-size model ----------------------------------------------------------
//
// The simulated network prices messages by an estimated serialized size;
// every payload-size computation goes through these helpers so the cost
// model lives in exactly one place (it used to be duplicated magic numbers
// at each send site).
//
// Since the wire codec (src/wire/) exists, these are *estimates only*: with
// RgbConfig::wire_metering on (the default) the network meters the exact
// encoded size, and wire::estimate_consistent debug-asserts that every
// estimate stays an upper bound of the encoded bytes within a bounded
// factor. The per-unit constants below are upper bounds of the varint
// encoding for realistic identifier magnitudes (ids below 2^32, op
// uid/seq of any value); tests/wire/metering_test.cpp holds them to it.

namespace wire {
/// Fixed per-message overhead: frame, ids, flags.
inline constexpr std::uint32_t kBaseBytes = 64;
/// One TableEntry: group + guid + AP + status + seq + claim epoch.
inline constexpr std::uint32_t kTableEntryBytes = 40;
/// One MemberRecord: guid + AP + status.
inline constexpr std::uint32_t kMemberRecordBytes = 16;
/// One NodeId (roster elements).
inline constexpr std::uint32_t kNodeIdBytes = 8;
/// One MembershipOp: kind + uid + seq + claim epoch + group + member +
/// five ids.
inline constexpr std::uint32_t kOpBytes = 86;
/// One notify/round id.
inline constexpr std::uint32_t kIdBytes = 10;
/// One AttachClaim: group + guid + claim epoch.
inline constexpr std::uint32_t kClaimBytes = 22;
/// One packed per-group digest: gid + hash + count.
inline constexpr std::uint32_t kGroupDigestBytes = 24;
/// One GroupId (sync scope elements).
inline constexpr std::uint32_t kGroupIdBytes = 10;
/// One group's bucket digests: gid + length + kBucketCount 8-byte hashes.
inline constexpr std::uint32_t kGroupBucketsBytes =
    kGroupIdBytes + 2 + 8 * static_cast<std::uint32_t>(kBucketCount);
/// One bucket scope: gid + length; each bucket index below kBucketCount.
inline constexpr std::uint32_t kBucketScopeBytes = kGroupIdBytes + 2;
inline constexpr std::uint32_t kBucketIndexBytes = 2;
}  // namespace wire

/// A bare flooded MembershipOp (the tree baseline's proposal): kOpBytes
/// bounds the framed op on its own.
[[nodiscard]] inline std::uint32_t wire_size(const MembershipOp&) {
  return wire::kOpBytes;
}

[[nodiscard]] inline std::uint32_t wire_size(const TokenMsg& msg) {
  return wire::kBaseBytes +
         wire::kOpBytes * static_cast<std::uint32_t>(msg.token.ops.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const NotifyMsg& msg) {
  return wire::kBaseBytes +
         wire::kOpBytes * static_cast<std::uint32_t>(msg.ops.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const HolderAckMsg& msg) {
  return wire::kBaseBytes +
         wire::kIdBytes * static_cast<std::uint32_t>(msg.notify_ids.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const RepairMsg& msg) {
  return wire::kBaseBytes +
         wire::kNodeIdBytes * static_cast<std::uint32_t>(msg.faulty.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const AlertMsg& msg) {
  return wire::kBaseBytes +
         wire::kNodeIdBytes * static_cast<std::uint32_t>(msg.suspects.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const AlertAckMsg&) {
  return wire::kBaseBytes;
}

[[nodiscard]] inline std::uint32_t wire_size(const MergeOfferMsg& msg) {
  return wire::kBaseBytes +
         wire::kNodeIdBytes * static_cast<std::uint32_t>(msg.roster.size()) +
         wire::kTableEntryBytes * static_cast<std::uint32_t>(msg.entries.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const MergeAcceptMsg& msg) {
  return wire::kBaseBytes +
         wire::kNodeIdBytes * static_cast<std::uint32_t>(msg.roster.size()) +
         wire::kTableEntryBytes * static_cast<std::uint32_t>(msg.entries.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const RingReformMsg& msg) {
  return wire::kBaseBytes +
         wire::kNodeIdBytes * static_cast<std::uint32_t>(msg.roster.size()) +
         wire::kTableEntryBytes * static_cast<std::uint32_t>(msg.entries.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const ViewSyncMsg& msg) {
  std::uint32_t scope_bytes = 0;
  for (const BucketScope& scope : msg.bucket_scope) {
    scope_bytes += wire::kBucketScopeBytes +
                   wire::kBucketIndexBytes *
                       static_cast<std::uint32_t>(scope.buckets.size());
  }
  return wire::kBaseBytes +
         wire::kTableEntryBytes * static_cast<std::uint32_t>(msg.entries.size()) +
         wire::kNodeIdBytes * static_cast<std::uint32_t>(msg.roster.size()) +
         wire::kGroupDigestBytes *
             static_cast<std::uint32_t>(msg.group_digests.size()) +
         wire::kGroupIdBytes * static_cast<std::uint32_t>(msg.sync_gids.size()) +
         wire::kGroupBucketsBytes *
             static_cast<std::uint32_t>(msg.group_buckets.size()) +
         scope_bytes;
}

[[nodiscard]] inline std::uint32_t wire_size(const SnapshotRequestMsg&) {
  return wire::kBaseBytes;
}

[[nodiscard]] inline std::uint32_t wire_size(const ReconcileMsg& msg) {
  return wire::kBaseBytes +
         wire::kClaimBytes * static_cast<std::uint32_t>(msg.claims.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const ReconcileAckMsg& msg) {
  return wire::kBaseBytes +
         wire::kTableEntryBytes *
             static_cast<std::uint32_t>(msg.superseding.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const SnapshotAckMsg&) {
  return wire::kBaseBytes;
}

[[nodiscard]] inline std::uint32_t wire_size(const SnapshotMsg& msg) {
  return wire::kBaseBytes + static_cast<std::uint32_t>(msg.blob.size());
}

[[nodiscard]] inline std::uint32_t wire_size(const QueryReplyMsg& msg) {
  return wire::kBaseBytes +
         wire::kMemberRecordBytes * static_cast<std::uint32_t>(msg.members.size());
}

}  // namespace rgb::core
