#include "wire/arbitrary.hpp"

#include <vector>

#include "flatring/flat_ring.hpp"
#include "gossip/gossip_membership.hpp"
#include "rgb/member_table.hpp"
#include "rgb/messages.hpp"
#include "tree/tree_membership.hpp"
#include "wire/snapshot.hpp"

namespace rgb::wire {

namespace {

struct Gen {
  common::RngStream& rng;
  const ArbitraryOptions& options;

  [[nodiscard]] std::uint64_t u64() {
    return options.realistic ? rng.next_below(1ULL << 32) : rng.next_u64();
  }
  template <typename Id>
  [[nodiscard]] Id id() {
    // ~1 in 8 invalid: provenance/old-ap fields are often unset in real
    // traffic, and the sentinel exercises the +1 wrap encoding.
    if (rng.next_below(8) == 0) return Id{};
    return Id{u64()};
  }
  [[nodiscard]] std::size_t count() {
    return static_cast<std::size_t>(rng.next_below(options.max_elements + 1));
  }
  [[nodiscard]] bool coin() { return rng.next_below(2) == 1; }

  [[nodiscard]] proto::MemberRecord record() {
    proto::MemberRecord r;
    r.guid = id<common::Guid>();
    r.access_proxy = id<common::NodeId>();
    r.status = static_cast<proto::MemberStatus>(rng.next_below(3));
    return r;
  }

  [[nodiscard]] core::MembershipOp op() {
    core::MembershipOp o;
    o.kind = static_cast<core::OpKind>(rng.next_below(7));
    o.uid = options.realistic ? rng.next_below(1ULL << 56) : rng.next_u64();
    o.seq = options.realistic ? rng.next_below(1ULL << 62) : rng.next_u64();
    o.claim_seq =
        options.realistic ? rng.next_below(1ULL << 62) : rng.next_u64();
    o.gid = id<common::GroupId>();
    o.member = record();
    o.old_ap = id<common::NodeId>();
    o.ne = id<common::NodeId>();
    o.ne_after = id<common::NodeId>();
    o.from_child_of = id<common::NodeId>();
    o.from_parent_of = id<common::NodeId>();
    return o;
  }

  [[nodiscard]] std::vector<core::MembershipOp> ops() {
    std::vector<core::MembershipOp> out(count());
    for (auto& o : out) o = op();
    return out;
  }

  [[nodiscard]] core::TableEntry entry() {
    core::TableEntry e;
    e.record = record();
    e.last_seq = options.realistic ? rng.next_below(1ULL << 62) : rng.next_u64();
    e.claim_seq =
        options.realistic ? rng.next_below(1ULL << 62) : rng.next_u64();
    e.gid = id<common::GroupId>();
    return e;
  }

  [[nodiscard]] std::vector<core::AttachClaim> claims() {
    std::vector<core::AttachClaim> out(count());
    for (auto& c : out) {
      c.mh = id<common::Guid>();
      c.claim_seq =
          options.realistic ? rng.next_below(1ULL << 62) : rng.next_u64();
      c.gid = id<common::GroupId>();
    }
    return out;
  }

  [[nodiscard]] std::vector<core::TableEntry> entries() {
    std::vector<core::TableEntry> out(count());
    for (auto& e : out) e = entry();
    return out;
  }

  [[nodiscard]] std::vector<common::NodeId> roster() {
    std::vector<common::NodeId> out(count());
    for (auto& n : out) n = id<common::NodeId>();
    return out;
  }

  [[nodiscard]] std::vector<common::GroupId> gids() {
    std::vector<common::GroupId> out(count());
    for (auto& gid : out) gid = id<common::GroupId>();
    return out;
  }

  [[nodiscard]] std::vector<core::GroupDigest> group_digests() {
    std::vector<core::GroupDigest> out(count());
    for (auto& d : out) {
      d.gid = id<common::GroupId>();
      d.hash = rng.next_u64();  // hashes are full-range by nature
      d.count = u64();
    }
    return out;
  }

  [[nodiscard]] std::vector<core::GroupBuckets> group_buckets() {
    std::vector<core::GroupBuckets> out(count());
    for (auto& g : out) {
      g.gid = id<common::GroupId>();
      for (auto& hash : g.hashes) hash = rng.next_u64();
    }
    return out;
  }

  /// Bucket scopes with valid (ascending, in-range) bucket lists.
  [[nodiscard]] std::vector<core::BucketScope> bucket_scope() {
    std::vector<core::BucketScope> out(count());
    for (auto& scope : out) {
      scope.gid = id<common::GroupId>();
      for (std::uint32_t b = 0; b < core::kBucketCount; ++b) {
        if (rng.next_below(16) == 0) scope.buckets.push_back(b);
      }
    }
    return out;
  }

  /// A valid encoded snapshot blob: gid-major groups (strictly
  /// gid-ascending), strictly guid-ascending entries within each group.
  [[nodiscard]] std::vector<std::uint8_t> snapshot_blob() {
    const std::size_t groups = 1 + rng.next_below(3);
    std::vector<core::TableEntry> sorted;
    std::uint64_t gid = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      gid += 1 + rng.next_below(100);
      std::uint64_t guid = 0;
      const std::size_t n = count();
      for (std::size_t i = 0; i < n; ++i) {
        guid += 1 + rng.next_below(1000);
        core::TableEntry e = entry();
        e.gid = common::GroupId{gid};
        e.record.guid = common::Guid{guid};
        sorted.push_back(e);
      }
    }
    std::vector<std::uint8_t> blob;
    encode_snapshot(sorted, blob);
    return blob;
  }
};

}  // namespace

net::Payload arbitrary_payload(net::MessageKind kind, common::RngStream& rng,
                               const ArbitraryOptions& options) {
  Gen g{rng, options};
  switch (kind) {
    case core::kind::kToken:
    case core::kind::kProbe: {
      core::TokenMsg m;
      m.token.gid = g.id<common::GroupId>();
      m.token.holder = g.id<common::NodeId>();
      m.token.round_id = g.u64();
      m.token.ops = g.ops();
      if (kind == core::kind::kProbe) m.token.ops.clear();
      return m;
    }
    case core::kind::kTokenPassAck:
      return core::TokenPassAckMsg{g.u64()};
    case core::kind::kTokenRequest:
      return core::TokenRequestMsg{g.id<common::NodeId>(), g.coin()};
    case core::kind::kTokenGrant:
      return core::TokenGrantMsg{g.u64()};
    case core::kind::kTokenRelease:
      return core::TokenReleaseMsg{g.u64()};
    case core::kind::kNotifyParent:
    case core::kind::kNotifyChild:
      return core::NotifyMsg{g.ops(), g.u64(),
                             kind == core::kind::kNotifyChild};
    case core::kind::kHolderAck: {
      core::HolderAckMsg m;
      m.notify_ids.resize(g.count());
      for (auto& nid : m.notify_ids) nid = g.u64();
      return m;
    }
    case core::kind::kRepair:
      return core::RepairMsg{g.id<common::NodeId>(), g.roster()};
    case core::kind::kChildRebind:
      return core::ChildRebindMsg{g.id<common::NodeId>()};
    case core::kind::kProbeAck:
      return core::ProbeAckMsg{g.u64()};
    case core::kind::kMergeOffer:
      return core::MergeOfferMsg{g.roster(), g.entries()};
    case core::kind::kMergeAccept:
      return core::MergeAcceptMsg{g.roster(), g.entries()};
    case core::kind::kRingReform:
      return core::RingReformMsg{g.roster(), g.id<common::NodeId>(),
                                 g.entries()};
    case core::kind::kNeJoinRequest:
      return core::NeJoinRequestMsg{g.id<common::NodeId>(), g.u64()};
    case core::kind::kNeLeaveRequest:
      return core::NeLeaveRequestMsg{g.id<common::NodeId>(), g.u64()};
    case core::kind::kViewSync: {
      core::ViewSyncMsg m;
      m.phase = static_cast<core::ViewSyncMsg::Phase>(g.rng.next_below(5));
      m.digest = g.rng.next_u64();  // hashes are full-range by nature
      m.entry_count = static_cast<std::uint32_t>(g.rng.next_below(1U << 20));
      m.reply_requested = g.coin();
      m.entries = g.entries();
      m.roster = g.roster();
      m.leader = g.id<common::NodeId>();
      m.group_digests = g.group_digests();
      m.sync_gids = g.gids();
      if (g.coin()) {  // the v5 bucket fields, else the v4 layout
        m.group_buckets = g.group_buckets();
        m.bucket_scope = g.bucket_scope();
      }
      return m;
    }
    case core::kind::kSnapshotRequest:
      return core::SnapshotRequestMsg{g.rng.next_u64(), g.u64()};
    case core::kind::kSnapshot: {
      core::SnapshotMsg m;
      m.digest = g.rng.next_u64();
      m.entry_count = g.u64();
      m.blob = g.snapshot_blob();
      return m;
    }
    case core::kind::kSnapshotAck:
      return core::SnapshotAckMsg{g.rng.next_u64(), g.u64()};
    case core::kind::kReconcile:
      return core::ReconcileMsg{g.u64(), g.claims()};
    case core::kind::kReconcileAck:
      return core::ReconcileAckMsg{g.u64(), g.entries()};
    case core::kind::kAlert:
      return core::AlertMsg{g.id<common::NodeId>(), g.u64(), g.roster(),
                            g.coin()};
    case core::kind::kAlertAck:
      return core::AlertAckMsg{g.id<common::NodeId>(), g.u64()};
    case core::kind::kMhRequest:
      return core::MhRequestMsg{
          static_cast<core::MhRequestKind>(g.rng.next_below(4)),
          g.id<common::Guid>(), g.id<common::NodeId>(),
          g.id<common::GroupId>()};
    case core::kind::kMhAck:
      return core::MhAckMsg{
          static_cast<core::MhRequestKind>(g.rng.next_below(4)),
          g.id<common::Guid>(), g.id<common::GroupId>()};
    case core::kind::kMhHeartbeat:
      return core::MhHeartbeatMsg{g.id<common::Guid>()};
    case core::kind::kQueryRequest:
      return core::QueryRequestMsg{g.u64(), g.id<common::NodeId>(),
                                   g.id<common::GroupId>()};
    case core::kind::kQueryReply: {
      core::QueryReplyMsg m;
      m.query_id = g.u64();
      m.members.resize(g.count());
      for (auto& r : m.members) r = g.record();
      return m;
    }
    default:
      break;
  }
  if (kind == tree::kTreeProposal) return g.op();
  if (kind == tree::kTreeQuery) {
    return core::QueryRequestMsg{g.u64(), g.id<common::NodeId>(),
                                 g.id<common::GroupId>()};
  }
  if (kind == tree::kTreeQueryReply) {
    core::QueryReplyMsg m;
    m.query_id = g.u64();
    m.members.resize(g.count());
    for (auto& r : m.members) r = g.record();
    return m;
  }
  if (kind == flatring::kRingToken) {
    flatring::RingTokenMsg m;
    m.entries.resize(g.count());
    for (auto& e : m.entries) {
      e.op = g.op();
      e.remaining_hops = static_cast<int>(g.rng.next_below(1000));
    }
    m.wake_target = g.id<common::NodeId>();
    return m;
  }
  if (kind == flatring::kRingWake) {
    return flatring::WakeMsg{g.u64(), g.id<common::NodeId>()};
  }
  if (kind == gossip::kPing || kind == gossip::kAck) {
    std::vector<gossip::Update> updates(g.count());
    for (auto& u : updates) {
      u.op = g.op();
      u.budget = static_cast<int>(g.rng.next_below(64));
    }
    if (kind == gossip::kPing) return gossip::PingMsg{g.u64(), updates};
    return gossip::AckMsg{g.u64(), updates};
  }
  return net::Payload{};  // unreached for registered kinds
}

std::uint32_t estimated_wire_size(net::MessageKind kind,
                                  const net::Payload& payload) {
  using core::wire_size;
  switch (kind) {
    case core::kind::kToken:
    case core::kind::kProbe:
      return wire_size(payload.get<core::TokenMsg>());
    case core::kind::kNotifyParent:
    case core::kind::kNotifyChild:
      return wire_size(payload.get<core::NotifyMsg>());
    case core::kind::kHolderAck:
      return wire_size(payload.get<core::HolderAckMsg>());
    case core::kind::kRepair:
      return wire_size(payload.get<core::RepairMsg>());
    case core::kind::kMergeOffer:
      return wire_size(payload.get<core::MergeOfferMsg>());
    case core::kind::kMergeAccept:
      return wire_size(payload.get<core::MergeAcceptMsg>());
    case core::kind::kRingReform:
      return wire_size(payload.get<core::RingReformMsg>());
    case core::kind::kViewSync:
      return wire_size(payload.get<core::ViewSyncMsg>());
    case core::kind::kSnapshotRequest:
      return wire_size(payload.get<core::SnapshotRequestMsg>());
    case core::kind::kSnapshot:
      return wire_size(payload.get<core::SnapshotMsg>());
    case core::kind::kSnapshotAck:
      return wire_size(payload.get<core::SnapshotAckMsg>());
    case core::kind::kReconcile:
      return wire_size(payload.get<core::ReconcileMsg>());
    case core::kind::kReconcileAck:
      return wire_size(payload.get<core::ReconcileAckMsg>());
    case core::kind::kAlert:
      return wire_size(payload.get<core::AlertMsg>());
    case core::kind::kAlertAck:
      return wire_size(payload.get<core::AlertAckMsg>());
    case core::kind::kQueryReply:
      return wire_size(payload.get<core::QueryReplyMsg>());
    default:
      break;
  }
  // Baseline send-site estimates: the same wire_size() overloads the
  // senders call, so the band test can never drift from the real sites.
  if (kind == tree::kTreeProposal) {
    return wire_size(payload.get<core::MembershipOp>());
  }
  if (kind == tree::kTreeQueryReply) {
    return wire_size(payload.get<core::QueryReplyMsg>());
  }
  if (kind == flatring::kRingToken) {
    return flatring::wire_size(payload.get<flatring::RingTokenMsg>());
  }
  if (kind == gossip::kPing) {
    return gossip::wire_size(payload.get<gossip::PingMsg>());
  }
  if (kind == gossip::kAck) {
    return gossip::wire_size(payload.get<gossip::AckMsg>());
  }
  return 0;  // send sites use the flat 64-byte default
}

}  // namespace rgb::wire
