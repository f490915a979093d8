// Per-message body codecs (wire format version 5 — version 4 plus the
// bucket-level anti-entropy fields on ViewSync: the kBuckets phase, its
// per-group bucket digests and the bucket scope of kFull / kDiff, present
// only when bit 7 of the phase byte is set, so every other ViewSync frame
// encodes as in version 4; version 4 was version 3 plus the multi-group
// GroupId on every group-scoped body and the packed per-group digest
// vector + sync scope on ViewSync; version 3 was version 2 plus the
// kAlert / kAlertAck stability-plane messages; version 2 was version 1
// plus the attachment-epoch claim_seq field on MembershipOp and
// TableEntry, and the kReconcile / kReconcileAck / kSnapshotAck messages).
//
// Every control message of the RGB protocol and of the tree/flatring/gossip
// baselines gets a `write_body` / `read_body` pair. Writers are templated
// over the sink so the exact same field walk backs both the real encoder
// (VectorSink) and the allocation-free size pass (CountingSink) the
// metering hook runs per send — the two can never drift apart.
//
// Readers are straight-line field reads against the sticky `Reader`; the
// registry checks `ok()` and exhaustion once at the end. Field order is
// part of the format: changing it is a wire-version bump.
#pragma once

#include <cstdint>
#include <vector>

#include "flatring/flat_ring.hpp"
#include "gossip/gossip_membership.hpp"
#include "rgb/member_table.hpp"
#include "rgb/messages.hpp"
#include "rgb/types.hpp"
#include "wire/codec.hpp"

namespace rgb::wire {

// --- building blocks ---------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const proto::MemberRecord& v) {
  w.id(v.guid);
  w.id(v.access_proxy);
  w.u8(static_cast<std::uint8_t>(v.status));
}

inline void read_body(Reader& r, proto::MemberRecord& v) {
  v.guid = r.id<common::GuidTag>();
  v.access_proxy = r.id<common::NodeIdTag>();
  v.status = r.enum8<proto::MemberStatus>(
      static_cast<std::uint8_t>(proto::MemberStatus::kFailed));
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::TableEntry& v) {
  write_body(w, v.record);
  w.varint(v.last_seq);
  w.varint(v.claim_seq);
  w.id(v.gid);
}

inline void read_body(Reader& r, core::TableEntry& v) {
  read_body(r, v.record);
  v.last_seq = r.varint();
  v.claim_seq = r.varint();
  v.gid = r.id<common::GroupIdTag>();
}

/// One group's digest in the packed kDigest frame.
template <typename Sink>
void write_body(Writer<Sink>& w, const core::GroupDigest& v) {
  w.id(v.gid);
  w.u64le(v.hash);
  w.varint(v.count);
}

inline void read_body(Reader& r, core::GroupDigest& v) {
  v.gid = r.id<common::GroupIdTag>();
  v.hash = r.u64le();
  v.count = r.varint();
}

/// One group's bucket digests in a kBuckets frame: a length that is not
/// kBucketCount is malformed.
template <typename Sink>
void write_body(Writer<Sink>& w, const core::GroupBuckets& v) {
  w.id(v.gid);
  w.varint(v.hashes.size());
  for (const std::uint64_t hash : v.hashes) w.u64le(hash);
}

inline void read_body(Reader& r, core::GroupBuckets& v) {
  v.gid = r.id<common::GroupIdTag>();
  if (r.length(8) != core::kBucketCount) r.fail(DecodeStatus::kMalformed);
  for (std::uint64_t& hash : v.hashes) hash = r.u64le();
}

/// One group's bucket scope: bucket indices strictly ascending and below
/// kBucketCount, or the scope is malformed.
template <typename Sink>
void write_body(Writer<Sink>& w, const core::BucketScope& v) {
  w.id(v.gid);
  w.varint(v.buckets.size());
  for (const std::uint32_t bucket : v.buckets) w.varint(bucket);
}

inline void read_body(Reader& r, core::BucketScope& v) {
  v.gid = r.id<common::GroupIdTag>();
  const std::uint64_t n = r.length(1);
  v.buckets.clear();
  v.buckets.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::uint64_t bucket = r.varint();
    if (bucket >= core::kBucketCount ||
        (!v.buckets.empty() && bucket <= v.buckets.back())) {
      r.fail(DecodeStatus::kMalformed);
    }
    v.buckets.push_back(static_cast<std::uint32_t>(bucket));
  }
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::MembershipOp& v) {
  w.u8(static_cast<std::uint8_t>(v.kind));
  w.varint(v.uid);
  w.varint(v.seq);
  w.varint(v.claim_seq);
  w.id(v.gid);
  write_body(w, v.member);
  w.id(v.old_ap);
  w.id(v.ne);
  w.id(v.ne_after);
  w.id(v.from_child_of);
  w.id(v.from_parent_of);
}

inline void read_body(Reader& r, core::MembershipOp& v) {
  v.kind = r.enum8<core::OpKind>(
      static_cast<std::uint8_t>(core::OpKind::kNeFail));
  v.uid = r.varint();
  v.seq = r.varint();
  v.claim_seq = r.varint();
  v.gid = r.id<common::GroupIdTag>();
  read_body(r, v.member);
  v.old_ap = r.id<common::NodeIdTag>();
  v.ne = r.id<common::NodeIdTag>();
  v.ne_after = r.id<common::NodeIdTag>();
  v.from_child_of = r.id<common::NodeIdTag>();
  v.from_parent_of = r.id<common::NodeIdTag>();
}

/// Length-prefixed sequence of any element with a write_body/read_body pair.
/// `min_element_bytes` lets the reader reject lengths that cannot fit the
/// remaining input before any allocation happens.
template <typename Sink, typename T>
void write_seq(Writer<Sink>& w, const std::vector<T>& seq) {
  w.varint(seq.size());
  for (const T& item : seq) write_body(w, item);
}

template <typename T>
void read_seq(Reader& r, std::vector<T>& seq, std::size_t min_element_bytes) {
  const std::uint64_t n = r.length(min_element_bytes);
  if (!r.ok()) return;
  seq.clear();
  seq.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    T item{};
    read_body(r, item);
    seq.push_back(std::move(item));
  }
}

template <typename Sink, typename Tag>
void write_ids(Writer<Sink>& w, const std::vector<common::StrongId<Tag>>& seq) {
  w.varint(seq.size());
  for (const auto id : seq) w.id(id);
}

template <typename Tag>
void read_ids(Reader& r, std::vector<common::StrongId<Tag>>& seq) {
  const std::uint64_t n = r.length(1);
  if (!r.ok()) return;
  seq.clear();
  seq.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) seq.push_back(r.id<Tag>());
}

// --- ring plane --------------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const core::TokenMsg& v) {
  w.id(v.token.gid);
  w.id(v.token.holder);
  w.varint(v.token.round_id);
  write_seq(w, v.token.ops);
}

inline void read_body(Reader& r, core::TokenMsg& v) {
  v.token.gid = r.id<common::GroupIdTag>();
  v.token.holder = r.id<common::NodeIdTag>();
  v.token.round_id = r.varint();
  read_seq(r, v.token.ops, 11);  // op: kind + 10 one-byte-minimum fields
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::TokenPassAckMsg& v) {
  w.varint(v.round_id);
}
inline void read_body(Reader& r, core::TokenPassAckMsg& v) {
  v.round_id = r.varint();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::TokenRequestMsg& v) {
  w.id(v.requester);
  w.boolean(v.leadership_claim);
}
inline void read_body(Reader& r, core::TokenRequestMsg& v) {
  v.requester = r.id<common::NodeIdTag>();
  v.leadership_claim = r.boolean();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::TokenGrantMsg& v) {
  w.varint(v.round_id);
}
inline void read_body(Reader& r, core::TokenGrantMsg& v) {
  v.round_id = r.varint();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::TokenReleaseMsg& v) {
  w.varint(v.round_id);
}
inline void read_body(Reader& r, core::TokenReleaseMsg& v) {
  v.round_id = r.varint();
}

// --- inter-ring plane --------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const core::NotifyMsg& v) {
  w.varint(v.notify_id);
  w.boolean(v.downward);
  write_seq(w, v.ops);
}
inline void read_body(Reader& r, core::NotifyMsg& v) {
  v.notify_id = r.varint();
  v.downward = r.boolean();
  read_seq(r, v.ops, 11);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::HolderAckMsg& v) {
  w.varint(v.notify_ids.size());
  for (const std::uint64_t nid : v.notify_ids) w.varint(nid);
}
inline void read_body(Reader& r, core::HolderAckMsg& v) {
  const std::uint64_t n = r.length(1);
  if (!r.ok()) return;
  v.notify_ids.clear();
  v.notify_ids.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    v.notify_ids.push_back(r.varint());
  }
}

// --- maintenance plane -------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const core::RepairMsg& v) {
  w.id(v.new_previous);
  write_ids(w, v.faulty);
}
inline void read_body(Reader& r, core::RepairMsg& v) {
  v.new_previous = r.id<common::NodeIdTag>();
  read_ids(r, v.faulty);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::AlertMsg& v) {
  w.id(v.observer);
  w.varint(v.alert_id);
  w.boolean(v.retract);
  write_ids(w, v.suspects);
}
inline void read_body(Reader& r, core::AlertMsg& v) {
  v.observer = r.id<common::NodeIdTag>();
  v.alert_id = r.varint();
  v.retract = r.boolean();
  read_ids(r, v.suspects);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::AlertAckMsg& v) {
  w.id(v.responder);
  w.varint(v.alert_id);
}
inline void read_body(Reader& r, core::AlertAckMsg& v) {
  v.responder = r.id<common::NodeIdTag>();
  v.alert_id = r.varint();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::ChildRebindMsg& v) {
  w.id(v.new_child_leader);
}
inline void read_body(Reader& r, core::ChildRebindMsg& v) {
  v.new_child_leader = r.id<common::NodeIdTag>();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::ProbeAckMsg& v) {
  w.varint(v.probe_id);
}
inline void read_body(Reader& r, core::ProbeAckMsg& v) {
  v.probe_id = r.varint();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::MergeOfferMsg& v) {
  write_ids(w, v.roster);
  write_seq(w, v.entries);
}
inline void read_body(Reader& r, core::MergeOfferMsg& v) {
  read_ids(r, v.roster);
  read_seq(r, v.entries, 6);  // entry: guid + ap + status + seq + claim + gid
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::MergeAcceptMsg& v) {
  write_ids(w, v.roster);
  write_seq(w, v.entries);
}
inline void read_body(Reader& r, core::MergeAcceptMsg& v) {
  read_ids(r, v.roster);
  read_seq(r, v.entries, 6);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::RingReformMsg& v) {
  write_ids(w, v.roster);
  w.id(v.leader);
  write_seq(w, v.entries);
}
inline void read_body(Reader& r, core::RingReformMsg& v) {
  read_ids(r, v.roster);
  v.leader = r.id<common::NodeIdTag>();
  read_seq(r, v.entries, 6);
}

/// Bit 7 of the ViewSync phase byte (v5): the bucket fields follow the
/// v4 body. Set exactly when one of them is non-empty, so a frame without
/// them is byte for byte its v4 encoding.
inline constexpr std::uint8_t kViewSyncBucketed = 0x80;

template <typename Sink>
void write_body(Writer<Sink>& w, const core::ViewSyncMsg& v) {
  const bool bucketed = !v.group_buckets.empty() || !v.bucket_scope.empty();
  w.u8(static_cast<std::uint8_t>(v.phase) |
       (bucketed ? kViewSyncBucketed : 0));
  w.u64le(v.digest);
  w.varint(v.entry_count);
  w.boolean(v.reply_requested);
  write_seq(w, v.entries);
  write_ids(w, v.roster);
  w.id(v.leader);
  write_seq(w, v.group_digests);
  write_ids(w, v.sync_gids);
  if (bucketed) {
    write_seq(w, v.group_buckets);
    write_seq(w, v.bucket_scope);
  }
}
inline void read_body(Reader& r, core::ViewSyncMsg& v) {
  const std::uint8_t head = r.u8();
  const auto phase = static_cast<std::uint8_t>(head & ~kViewSyncBucketed);
  if (phase > static_cast<std::uint8_t>(core::ViewSyncMsg::Phase::kBuckets)) {
    r.fail(DecodeStatus::kBadEnum);
  }
  v.phase = r.ok() ? static_cast<core::ViewSyncMsg::Phase>(phase)
                   : core::ViewSyncMsg::Phase::kFull;
  v.digest = r.u64le();
  const std::uint64_t count = r.varint();
  if (count > UINT32_MAX) r.fail(DecodeStatus::kMalformed);
  v.entry_count = static_cast<std::uint32_t>(count);
  v.reply_requested = r.boolean();
  read_seq(r, v.entries, 6);
  read_ids(r, v.roster);
  v.leader = r.id<common::NodeIdTag>();
  read_seq(r, v.group_digests, 10);  // digest: gid + 8B hash + count
  read_ids(r, v.sync_gids);
  if ((head & kViewSyncBucketed) != 0) {
    // gid + 2-byte length + the hashes; gid + length
    read_seq(r, v.group_buckets, 3 + 8 * core::kBucketCount);
    read_seq(r, v.bucket_scope, 2);
    if (v.group_buckets.empty() && v.bucket_scope.empty()) {
      r.fail(DecodeStatus::kMalformed);  // the flag without its fields
    }
  }
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::SnapshotRequestMsg& v) {
  w.u64le(v.digest);
  w.varint(v.entry_count);
}
inline void read_body(Reader& r, core::SnapshotRequestMsg& v) {
  v.digest = r.u64le();
  v.entry_count = r.varint();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::SnapshotMsg& v) {
  w.u64le(v.digest);
  w.varint(v.entry_count);
  w.varint(v.blob.size());
  w.bytes(v.blob.data(), v.blob.size());
}
inline void read_body(Reader& r, core::SnapshotMsg& v) {
  v.digest = r.u64le();
  v.entry_count = r.varint();
  const std::uint64_t n = r.length(1);
  const std::uint8_t* data = r.view(n);
  if (data != nullptr) v.blob.assign(data, data + n);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::SnapshotAckMsg& v) {
  w.u64le(v.digest);
  w.varint(v.entry_count);
}
inline void read_body(Reader& r, core::SnapshotAckMsg& v) {
  v.digest = r.u64le();
  v.entry_count = r.varint();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::AttachClaim& v) {
  w.id(v.mh);
  w.varint(v.claim_seq);
  w.id(v.gid);
}
inline void read_body(Reader& r, core::AttachClaim& v) {
  v.mh = r.id<common::GuidTag>();
  v.claim_seq = r.varint();
  v.gid = r.id<common::GroupIdTag>();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::ReconcileMsg& v) {
  w.varint(v.reconcile_id);
  write_seq(w, v.claims);
}
inline void read_body(Reader& r, core::ReconcileMsg& v) {
  v.reconcile_id = r.varint();
  read_seq(r, v.claims, 3);  // claim: guid + epoch + gid
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::ReconcileAckMsg& v) {
  w.varint(v.reconcile_id);
  write_seq(w, v.superseding);
}
inline void read_body(Reader& r, core::ReconcileAckMsg& v) {
  v.reconcile_id = r.varint();
  read_seq(r, v.superseding, 6);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::NeJoinRequestMsg& v) {
  w.id(v.joiner);
  w.varint(v.notify_id);
}
inline void read_body(Reader& r, core::NeJoinRequestMsg& v) {
  v.joiner = r.id<common::NodeIdTag>();
  v.notify_id = r.varint();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::NeLeaveRequestMsg& v) {
  w.id(v.leaver);
  w.varint(v.notify_id);
}
inline void read_body(Reader& r, core::NeLeaveRequestMsg& v) {
  v.leaver = r.id<common::NodeIdTag>();
  v.notify_id = r.varint();
}

// --- edge plane --------------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const core::MhRequestMsg& v) {
  w.u8(static_cast<std::uint8_t>(v.kind));
  w.id(v.mh);
  w.id(v.old_ap);
  w.id(v.gid);
}
inline void read_body(Reader& r, core::MhRequestMsg& v) {
  v.kind = r.enum8<core::MhRequestKind>(
      static_cast<std::uint8_t>(core::MhRequestKind::kFail));
  v.mh = r.id<common::GuidTag>();
  v.old_ap = r.id<common::NodeIdTag>();
  v.gid = r.id<common::GroupIdTag>();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::MhAckMsg& v) {
  w.u8(static_cast<std::uint8_t>(v.kind));
  w.id(v.mh);
  w.id(v.gid);
}
inline void read_body(Reader& r, core::MhAckMsg& v) {
  v.kind = r.enum8<core::MhRequestKind>(
      static_cast<std::uint8_t>(core::MhRequestKind::kFail));
  v.mh = r.id<common::GuidTag>();
  v.gid = r.id<common::GroupIdTag>();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::MhHeartbeatMsg& v) {
  w.id(v.mh);
}
inline void read_body(Reader& r, core::MhHeartbeatMsg& v) {
  v.mh = r.id<common::GuidTag>();
}

// --- query plane -------------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const core::QueryRequestMsg& v) {
  w.varint(v.query_id);
  w.id(v.reply_to);
  w.id(v.gid);
}
inline void read_body(Reader& r, core::QueryRequestMsg& v) {
  v.query_id = r.varint();
  v.reply_to = r.id<common::NodeIdTag>();
  v.gid = r.id<common::GroupIdTag>();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const core::QueryReplyMsg& v) {
  w.varint(v.query_id);
  write_seq(w, v.members);
}
inline void read_body(Reader& r, core::QueryReplyMsg& v) {
  v.query_id = r.varint();
  read_seq(r, v.members, 3);  // record: guid + ap + status
}

// --- flat-ring baseline ------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const flatring::TokenEntry& v) {
  write_body(w, v.op);
  w.varint(static_cast<std::uint64_t>(v.remaining_hops));
}
inline void read_body(Reader& r, flatring::TokenEntry& v) {
  read_body(r, v.op);
  const std::uint64_t hops = r.varint();
  if (hops > INT32_MAX) r.fail(DecodeStatus::kMalformed);
  v.remaining_hops = static_cast<int>(hops);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const flatring::RingTokenMsg& v) {
  write_seq(w, v.entries);
  w.id(v.wake_target);
}
inline void read_body(Reader& r, flatring::RingTokenMsg& v) {
  read_seq(r, v.entries, 12);  // op + hop count
  v.wake_target = r.id<common::NodeIdTag>();
}

template <typename Sink>
void write_body(Writer<Sink>& w, const flatring::WakeMsg& v) {
  w.varint(v.wake_id);
  w.id(v.origin);
}
inline void read_body(Reader& r, flatring::WakeMsg& v) {
  v.wake_id = r.varint();
  v.origin = r.id<common::NodeIdTag>();
}

// --- gossip baseline ---------------------------------------------------------

template <typename Sink>
void write_body(Writer<Sink>& w, const gossip::Update& v) {
  write_body(w, v.op);
  w.varint(static_cast<std::uint64_t>(v.budget));
}
inline void read_body(Reader& r, gossip::Update& v) {
  read_body(r, v.op);
  const std::uint64_t budget = r.varint();
  if (budget > INT32_MAX) r.fail(DecodeStatus::kMalformed);
  v.budget = static_cast<int>(budget);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const gossip::PingMsg& v) {
  w.varint(v.ping_id);
  write_seq(w, v.updates);
}
inline void read_body(Reader& r, gossip::PingMsg& v) {
  v.ping_id = r.varint();
  read_seq(r, v.updates, 12);
}

template <typename Sink>
void write_body(Writer<Sink>& w, const gossip::AckMsg& v) {
  w.varint(v.ping_id);
  write_seq(w, v.updates);
}
inline void read_body(Reader& r, gossip::AckMsg& v) {
  v.ping_id = r.varint();
  read_seq(r, v.updates, 12);
}

}  // namespace rgb::wire
