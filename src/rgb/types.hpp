// Core value types of the RGB protocol (paper Section 4.2):
// membership-change operations, the circulating Token, tier/role labels and
// the protocol configuration knobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "proto/membership_service.hpp"
#include "sim/time.hpp"

namespace rgb::core {

using common::GroupId;
using common::Guid;
using common::NodeId;
using common::RingId;
using proto::MemberRecord;
using proto::MemberStatus;
using proto::QueryScheme;

/// Network-entity role in the 4-tier architecture. Tier index grows
/// downwards: BR=0 (topmost ring tier), AG=1, AP=2 for the canonical
/// three-ring-tier hierarchy; deeper hierarchies extend the pattern with
/// intermediate gateway tiers.
enum class NeRole : std::uint8_t {
  kBorderRouter,
  kAccessGateway,
  kAccessProxy,
};

/// Type of an aggregated token operation — the paper's
/// `OP: TypeOfAggregatedOperations`.
enum class OpKind : std::uint8_t {
  kMemberJoin,
  kMemberLeave,
  kMemberHandoff,
  kMemberFail,
  kNeJoin,
  kNeLeave,
  kNeFail,
};

[[nodiscard]] const char* to_string(OpKind kind);

/// An id unique across the deployment without coordination, as op uids,
/// token round, notify, alert and reconcile ids are:
/// `origin << 24 | counter mod 2^24`.
/// The counter is masked so that past 2^24 ids it wraps within its
/// origin's range: unmasked, it would carry into the origin bits, and NE
/// k's id number 2^24 + j would equal NE k+1's id j for even k. Keeping
/// the counter in the low bits also keeps one origin's ids close together,
/// which common::BoundedIdSet's 64-id blocks rely on.
[[nodiscard]] constexpr std::uint64_t origin_scoped_id(NodeId origin,
                                                       std::uint64_t counter) {
  constexpr int kCounterBits = 24;
  constexpr std::uint64_t kCounterMask = (std::uint64_t{1} << kCounterBits) - 1;
  return (origin.value() << kCounterBits) | (counter & kCounterMask);
}

/// One membership-change operation. Member ops carry the affected member
/// record; NE ops carry the affected network entity.
///
/// Two distinct identifiers with distinct jobs:
///  * `uid`  — globally unique identity (origin_scoped_id),
///             used for idempotent dissemination/dedup bookkeeping;
///  * `seq`  — time-major sequence used to order conflicting ops on the
///             same member (e.g. a handoff supersedes the earlier join even
///             when deliveries reorder across rings). Seqs of ops emitted
///             at the same virtual microsecond by different NEs may
///             collide; uniqueness there is uid's job, not seq's. Two
///             versions of a record at an equal (claim_seq, seq) order by
///             content (record_precedes in member_table.hpp).
struct MembershipOp {
  OpKind kind = OpKind::kMemberJoin;
  std::uint64_t uid = 0;
  std::uint64_t seq = 0;

  /// Group the member op belongs to (multi-group serving): the directory
  /// routes the op into that group's table/queue. Invalid on NE ops — NE
  /// liveness is a property of the shared hierarchy, not of any one group.
  GroupId gid;

  /// Attachment-epoch provenance (member ops): the op sequence of the
  /// *physical* attachment claim this op asserts or ends — a join or
  /// handoff-in starts a new epoch (claim_seq == seq); a leave/fail ends
  /// the epoch it refers to; a re-anchor re-asserts an existing epoch with
  /// a fresh seq. Conflicting records order by (claim_seq, seq)
  /// lexicographically, so a detector-inferred failure or a repair
  /// re-assertion derived from an old epoch can never shadow a newer
  /// physical attachment, no matter how fresh its seq. 0 = no epoch
  /// semantics (NE ops, baseline protocols) — orders purely by seq.
  std::uint64_t claim_seq = 0;

  /// Birth sim-tick stamped by the originating NE (observability only: the
  /// causal anchor for dissemination/join latency histograms). Deliberately
  /// NOT wire-encoded — it is local instrumentation, not protocol state,
  /// and a peer's decode must not influence its latency bookkeeping.
  sim::Time born = 0;

  // Member ops.
  MemberRecord member;
  NodeId old_ap;  ///< kMemberHandoff: the AP the member moved away from

  // NE ops.
  NodeId ne;          ///< affected network entity
  NodeId ne_after;    ///< kNeJoin: insert the new NE after this ring member

  // Per-ring propagation provenance (rewritten each time the op enters a new
  // ring): which ring member's child/parent contributed the op. Used to
  // avoid echoing a change back over the edge it arrived on.
  NodeId from_child_of;   ///< valid: op arrived via this member's child ring
  NodeId from_parent_of;  ///< valid: op arrived via this member's parent

  [[nodiscard]] bool is_member_op() const {
    return kind == OpKind::kMemberJoin || kind == OpKind::kMemberLeave ||
           kind == OpKind::kMemberHandoff || kind == OpKind::kMemberFail;
  }
};

/// The token circulating a logical ring (paper Section 4.2). One round =
/// the token visits every ring member once, starting and ending at
/// `holder`.
struct Token {
  GroupId gid;
  NodeId holder;              ///< the NE that initiated this round
  std::uint64_t round_id = 0; ///< unique per (ring, round) for retx matching
  std::vector<MembershipOp> ops;
};

/// Identifies where a query may be answered — derived from QueryScheme and
/// the hierarchy depth by the facade.
struct QueryPlan {
  int target_tier = 0;                  ///< tier whose ring leaders answer
  std::vector<NodeId> targets;          ///< the leaders to contact
};

/// The default group: the one the single-group views read, the group of
/// token rounds, and the group a pre-v4 claim or request without a gid
/// means.
inline constexpr GroupId kDefaultGroup{1};

/// Protocol configuration. Defaults reproduce the paper's setting: TMS
/// maintenance (global membership kept at the top), full downward
/// dissemination (every NE learns every change — the cost model behind
/// formula (6)), aggregation enabled.
struct RgbConfig {
  /// Number of groups multiplexed over the one hierarchy (multi-group
  /// serving). Groups are identified GroupId{1}..GroupId{groups}; the
  /// probe/token/stability/detection machinery is shared per-link while
  /// membership state (table, queue, digests) is per-group.
  std::uint64_t groups = 1;

  /// How many groups each facade-injected member joins (clamped to
  /// `groups`). The assignment is the deterministic member_groups() stride,
  /// so every node computes the same membership without coordination.
  std::uint64_t groups_per_member = 1;

  /// Per-hop token retransmission timeout; the paper's single-fault
  /// detection mechanism ("detected quickly by Token retransmission
  /// schemes", Section 5.2).
  sim::Duration retx_timeout = sim::msec(60);
  int max_retx = 2;

  /// Leader-side round watchdog: if a granted round does not complete
  /// within this bound the leader reclaims the token (holder crash).
  sim::Duration round_timeout = sim::msec(2000);

  /// Inter-ring notification retransmission (NotifyParent/NotifyChild wait
  /// for Holder-Acknowledgement).
  sim::Duration notify_timeout = sim::msec(1500);
  int max_notify_retx = 3;

  /// Tier index (0 = topmost) up to which membership changes propagate and
  /// are retained. 0 => TMS; (tiers-1) => BMS; in between => IMS.
  int retain_tier = 0;

  /// Whether changes are also disseminated downwards to every ring
  /// (Notification-to-Child). True matches the formula-(6) cost model.
  bool disseminate_down = true;

  /// Self-optimising MQ aggregation (Section 4.2). When false, each round
  /// carries exactly one queued op — the ablation baseline for E8.
  bool aggregate_mq = true;

  /// Period of the leader's ring-integrity probe; 0 disables probing
  /// (partition detection & merge are an extension — paper future work).
  sim::Duration probe_period = 0;

  /// Encoded-byte metering: RgbSystem installs the wire-codec sizer on its
  /// network (wire::attach_encoded_metering) so per-kind byte counters
  /// price every registered message at its exact framed encoding. When
  /// false the hand-written wire_size() estimates are metered instead —
  /// the pre-wire cost model, kept for A/B comparison.
  bool wire_metering = true;

  /// Snapshot bulk-join mode (kSnapshot state transfer): member-op
  /// dissemination towards child rings is replaced by debounced framed
  /// MemberTable snapshots — during a join surge the per-op
  /// Notification-to-Child fan-out (and the token round it triggers in
  /// every child ring) is suppressed, and each parent->child / leader->ring
  /// edge instead carries one encoded snapshot once the surge quiets down.
  /// Ops still propagate *upward* unchanged, so the retained tier stays
  /// authoritative at all times. Off by default: the per-op dissemination
  /// path is the paper's protocol and the fuzz/conformance baseline.
  bool snapshot_join = false;

  /// AP-side detection of faulty disconnections (Section 1): a local member
  /// that has heartbeated at least once and then stays silent for this long
  /// is declared failed (Member-Failure op). 0 disables monitoring.
  /// Members injected through the facade without an MH agent are never
  /// subject to it (they never heartbeat).
  sim::Duration mh_failure_timeout = 0;

  /// Multi-observer cut detection (Rapid-style stability layer). When on,
  /// a detector that exhausts its retransmission budget no longer splices
  /// the suspect immediately: it raises a kAlert towards the ring's
  /// aggregating leader (and pings the suspect, whose kAlertAck is a
  /// liveness counter-observation cancelling the alert), and the leader
  /// batches overlapping alerts within `stability_window` into one
  /// almost-everywhere cut — one multi-node splice, one reform, one set of
  /// claim-seq-stamped failure ops — instead of N cascading repairs.
  /// Silent-member sweeps defer through the same window. Off by default:
  /// the single-observer behaviour is the paper's protocol and the
  /// fuzz/conformance baseline.
  bool stability = false;

  /// Aggregation window: the cut fires at the latest this long after the
  /// first alert for a pending suspect, batching whatever correlated
  /// alerts arrived meanwhile. Alerts older than the window expire.
  sim::Duration stability_window = sim::msec(150);

  /// Observer-side liveness bound: an observer whose alert produced
  /// neither a cut/repair nor a liveness counter-observation within this
  /// long falls back to the single-observer declaration (the pre-stability
  /// path), so detection latency is bounded at roughly
  /// single-observer + stability_timeout even if the aggregator died.
  sim::Duration stability_timeout = sim::msec(400);
};

/// Deterministic guid -> group assignment used by the facade and the
/// check-layer ground truth: member `guid` belongs to
/// `min(groups_per_member, groups)` groups, starting at
/// GroupId{1 + guid % groups} and striding cyclically. Sorted ascending.
/// Every participant computes the same set locally, which is what lets the
/// oracles quantify over (group, guid) without a coordination channel.
[[nodiscard]] std::vector<GroupId> member_groups(Guid guid,
                                                 std::uint64_t groups,
                                                 std::uint64_t groups_per_member);

[[nodiscard]] inline std::vector<GroupId> member_groups(Guid guid,
                                                        const RgbConfig& config) {
  return member_groups(guid, config.groups, config.groups_per_member);
}

}  // namespace rgb::core
