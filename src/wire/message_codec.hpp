// Per-message body codecs, wire format version 5 (kWireVersion in
// wire/codec.hpp records what each version added).
//
// One field list per body. Every control message of the RGB protocol and
// of the tree/flatring/gossip baselines names its fields in wire order in
// one `fields(io, v)`, and both directions walk that list: `Encoder<Sink>`
// (with a VectorSink the real encoder, with a CountingSink the
// allocation-free size pass the metering hook runs per send) and
// `Decoder` (straight-line reads against the sticky `Reader`; the
// registry checks `ok()` and exhaustion once at the end). A field's
// encoding follows from its type:
//
//   std::uint64_t         varint
//   std::uint32_t, int    varint; a decoded value past the type's range is
//                         kMalformed
//   bool                  one byte, 0 or 1 (else kMalformed)
//   enum E                one byte, at most kEnumMax<E> (else kBadEnum)
//   StrongId              varint(value + 1): the invalid id is one byte
//   fixed64(x)            8 bytes little-endian (hashes); an array of N
//                         hashes is varint(N) then the hashes, and any
//                         other decoded length is kMalformed
//   std::vector<uint8_t>  varint(n) then n raw bytes
//   std::vector<T>        varint(n) then n elements; a length the rest of
//                         the input cannot hold at kMinBytes<T> each is
//                         kTruncated before anything is reserved
//   a body type           its own fields()
//
// A new body is one fields() plus one registry line (registry.cpp). Only a
// body whose layout branches on its own values gets an explicit pair, a
// `fields(Encoder<Sink>&, const T&)` and a `fields(Decoder&, T&)`: today
// ViewSyncMsg (its flagged v5 bucket tail) and BucketScope (its
// ascending-index check). Field order is part of the format: changing it
// is a wire-version bump.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "flatring/flat_ring.hpp"
#include "gossip/gossip_membership.hpp"
#include "rgb/member_table.hpp"
#include "rgb/messages.hpp"
#include "rgb/types.hpp"
#include "wire/codec.hpp"

namespace rgb::wire {

// --- field encodings ---------------------------------------------------------

/// A hash field (or an array of them) in a fields() list: `fixed64(x)`.
template <typename T>
struct Fixed64 {
  T& value;
};

template <typename T>
Fixed64<T> fixed64(T& value) {
  return {value};
}

/// Largest valid value of each enum a body carries (declared only, so an
/// enum field without one fails to link).
template <typename E>
extern const E kEnumMax;
template <>
inline constexpr proto::MemberStatus kEnumMax<proto::MemberStatus> =
    proto::MemberStatus::kFailed;
template <>
inline constexpr core::OpKind kEnumMax<core::OpKind> = core::OpKind::kNeFail;
template <>
inline constexpr core::MhRequestKind kEnumMax<core::MhRequestKind> =
    core::MhRequestKind::kFail;

/// A lower bound on one sequence element's encoded size (default: one
/// varint). The op bounds predate an op's claim_seq and gid and stay below
/// its 13 one-byte fields: raising them would move where a hostile length
/// is refused.
template <typename T>
inline constexpr std::size_t kMinBytes = 1;
template <>
inline constexpr std::size_t kMinBytes<core::MembershipOp> = 11;
template <>  // guid + ap + status + seq + claim + gid
inline constexpr std::size_t kMinBytes<core::TableEntry> = 6;
template <>  // op + hop count
inline constexpr std::size_t kMinBytes<flatring::TokenEntry> = 12;
template <>  // op + budget
inline constexpr std::size_t kMinBytes<gossip::Update> = 12;
template <>  // gid + 8-byte hash + count
inline constexpr std::size_t kMinBytes<core::GroupDigest> = 10;
template <>  // gid + 2-byte length + the hashes
inline constexpr std::size_t kMinBytes<core::GroupBuckets> =
    3 + 8 * core::kBucketCount;
template <>  // gid + length
inline constexpr std::size_t kMinBytes<core::BucketScope> = 2;
template <>  // guid + epoch + gid
inline constexpr std::size_t kMinBytes<core::AttachClaim> = 3;
template <>  // guid + ap + status
inline constexpr std::size_t kMinBytes<proto::MemberRecord> = 3;

// --- the two walkers ---------------------------------------------------------

/// Writes the fields handed to `io(...)` by their types; a body field
/// recurses into that body's fields().
template <typename Sink>
class Encoder {
 public:
  explicit Encoder(Sink sink = Sink{}) : writer_(std::move(sink)) {}

  template <typename... Values>
  void operator()(const Values&... values) {
    (put(values), ...);
  }

  [[nodiscard]] Writer<Sink>& writer() { return writer_; }

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      writer_.boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
      writer_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      writer_.varint(static_cast<std::uint64_t>(v));
    } else {
      fields(*this, v);
    }
  }
  template <typename Tag>
  void put(const common::StrongId<Tag>& v) {
    writer_.id(v);
  }
  void put(Fixed64<const std::uint64_t> v) { writer_.u64le(v.value); }
  template <std::size_t N>
  void put(Fixed64<const std::array<std::uint64_t, N>> v) {
    writer_.varint(N);
    for (const std::uint64_t hash : v.value) writer_.u64le(hash);
  }
  void put(const std::vector<std::uint8_t>& v) {
    writer_.varint(v.size());
    writer_.bytes(v.data(), v.size());
  }
  // Flattened: inlining the whole element walk into the loop makes the
  // VectorSink encode of a 2000-entry kFull about 3x faster than a plain
  // call per element (BM_CodecEncode/1).
  template <typename T>
  [[gnu::flatten]] void put(const std::vector<T>& v) {
    writer_.varint(v.size());
    for (const T& item : v) put(item);
  }

  Writer<Sink> writer_;
};

/// Reads the fields handed to `io(...)` by their types, in place; the
/// first failure sticks in the Reader.
class Decoder {
 public:
  explicit Decoder(Reader& reader) : reader_(reader) {}

  template <typename... Values>
  void operator()(Values&&... values) {
    (get(values), ...);
  }

  [[nodiscard]] Reader& reader() { return reader_; }

 private:
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = reader_.boolean();
    } else if constexpr (std::is_enum_v<T>) {
      v = reader_.enum8<T>(static_cast<std::uint8_t>(kEnumMax<T>));
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      v = reader_.varint();
    } else if constexpr (std::is_integral_v<T>) {
      const std::uint64_t raw = reader_.varint();
      if (raw > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        reader_.fail(DecodeStatus::kMalformed);
      }
      v = static_cast<T>(raw);
    } else {
      fields(*this, v);
    }
  }
  template <typename Tag>
  void get(common::StrongId<Tag>& v) {
    v = reader_.id<Tag>();
  }
  void get(Fixed64<std::uint64_t> v) { v.value = reader_.u64le(); }
  template <std::size_t N>
  void get(Fixed64<std::array<std::uint64_t, N>> v) {
    if (reader_.length(8) != N) reader_.fail(DecodeStatus::kMalformed);
    for (std::uint64_t& hash : v.value) hash = reader_.u64le();
  }
  void get(std::vector<std::uint8_t>& v) {
    const std::uint64_t n = reader_.length(1);
    const std::uint8_t* data = reader_.view(n);
    if (data != nullptr) v.assign(data, data + n);
  }
  template <typename T>
  void get(std::vector<T>& v) {
    const std::uint64_t n = reader_.length(kMinBytes<T>);
    v.reserve(n);
    for (std::uint64_t i = 0; i < n && reader_.ok(); ++i) {
      T item{};
      get(item);
      v.push_back(std::move(item));
    }
  }

  Reader& reader_;
};

/// `V` is the body type `T`: const when the Encoder walks it, mutable when
/// the Decoder does.
template <typename V, typename T>
concept Body = std::same_as<std::remove_const_t<V>, T>;

// --- building blocks ---------------------------------------------------------

template <typename IO, Body<proto::MemberRecord> V>
void fields(IO& io, V& v) { io(v.guid, v.access_proxy, v.status); }

template <typename IO, Body<core::TableEntry> V>
void fields(IO& io, V& v) { io(v.record, v.last_seq, v.claim_seq, v.gid); }

/// One group's digest in the packed kDigest frame.
template <typename IO, Body<core::GroupDigest> V>
void fields(IO& io, V& v) { io(v.gid, fixed64(v.hash), v.count); }

/// One group's bucket digests in a kBuckets frame: a length that is not
/// kBucketCount is malformed.
template <typename IO, Body<core::GroupBuckets> V>
void fields(IO& io, V& v) { io(v.gid, fixed64(v.hashes)); }

/// One group's bucket scope: bucket indices strictly ascending and below
/// kBucketCount, or the scope is malformed.
template <typename Sink>
void fields(Encoder<Sink>& io, const core::BucketScope& v) {
  io(v.gid, v.buckets);
}

inline void fields(Decoder& io, core::BucketScope& v) {
  Reader& r = io.reader();
  io(v.gid);
  const std::uint64_t n = r.length(1);
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

template <typename IO, Body<core::MembershipOp> V>
void fields(IO& io, V& v) {
  io(v.kind, v.uid, v.seq, v.claim_seq, v.gid, v.member, v.old_ap, v.ne,
     v.ne_after, v.from_child_of, v.from_parent_of);
}

// --- ring plane --------------------------------------------------------------

template <typename IO, Body<core::TokenMsg> V>
void fields(IO& io, V& v) {
  io(v.token.gid, v.token.holder, v.token.round_id, v.token.ops);
}

template <typename IO, Body<core::TokenPassAckMsg> V>
void fields(IO& io, V& v) { io(v.round_id); }

template <typename IO, Body<core::TokenRequestMsg> V>
void fields(IO& io, V& v) { io(v.requester, v.leadership_claim); }

template <typename IO, Body<core::TokenGrantMsg> V>
void fields(IO& io, V& v) { io(v.round_id); }

template <typename IO, Body<core::TokenReleaseMsg> V>
void fields(IO& io, V& v) { io(v.round_id); }

// --- inter-ring plane --------------------------------------------------------

template <typename IO, Body<core::NotifyMsg> V>
void fields(IO& io, V& v) { io(v.notify_id, v.downward, v.ops); }

template <typename IO, Body<core::HolderAckMsg> V>
void fields(IO& io, V& v) { io(v.notify_ids); }

// --- maintenance plane -------------------------------------------------------

template <typename IO, Body<core::RepairMsg> V>
void fields(IO& io, V& v) { io(v.new_previous, v.faulty); }

template <typename IO, Body<core::AlertMsg> V>
void fields(IO& io, V& v) { io(v.observer, v.alert_id, v.retract, v.suspects); }

template <typename IO, Body<core::AlertAckMsg> V>
void fields(IO& io, V& v) { io(v.responder, v.alert_id); }

template <typename IO, Body<core::ChildRebindMsg> V>
void fields(IO& io, V& v) { io(v.new_child_leader); }

template <typename IO, Body<core::ProbeAckMsg> V>
void fields(IO& io, V& v) { io(v.probe_id); }

template <typename IO, Body<core::MergeOfferMsg> V>
void fields(IO& io, V& v) { io(v.roster, v.entries); }

template <typename IO, Body<core::MergeAcceptMsg> V>
void fields(IO& io, V& v) { io(v.roster, v.entries); }

template <typename IO, Body<core::RingReformMsg> V>
void fields(IO& io, V& v) { io(v.roster, v.leader, v.entries); }

/// Bit 7 of the ViewSync phase byte (v5): the bucket fields follow the
/// v4 body. Set exactly when one of them is non-empty, so a frame without
/// them is byte for byte its v4 encoding.
inline constexpr std::uint8_t kViewSyncBucketed = 0x80;

/// The ViewSync fields after the phase byte, up to the v5 bucket tail.
template <typename IO, Body<core::ViewSyncMsg> V>
void v4_fields(IO& io, V& v) {
  io(fixed64(v.digest), v.entry_count, v.reply_requested, v.entries,
     v.roster, v.leader, v.group_digests, v.sync_gids);
}

template <typename Sink>
void fields(Encoder<Sink>& io, const core::ViewSyncMsg& v) {
  const bool bucketed = !v.group_buckets.empty() || !v.bucket_scope.empty();
  io.writer().u8(static_cast<std::uint8_t>(v.phase) |
                 (bucketed ? kViewSyncBucketed : 0));
  v4_fields(io, v);
  if (bucketed) io(v.group_buckets, v.bucket_scope);
}

inline void fields(Decoder& io, core::ViewSyncMsg& v) {
  Reader& r = io.reader();
  const std::uint8_t head = r.u8();
  const auto phase = static_cast<std::uint8_t>(head & ~kViewSyncBucketed);
  if (phase > static_cast<std::uint8_t>(core::ViewSyncMsg::Phase::kBuckets)) {
    r.fail(DecodeStatus::kBadEnum);
  }
  v.phase = r.ok() ? static_cast<core::ViewSyncMsg::Phase>(phase)
                   : core::ViewSyncMsg::Phase::kFull;
  v4_fields(io, v);
  if ((head & kViewSyncBucketed) != 0) {
    io(v.group_buckets, v.bucket_scope);
    if (v.group_buckets.empty() && v.bucket_scope.empty()) {
      r.fail(DecodeStatus::kMalformed);  // the flag without its fields
    }
  }
}

template <typename IO, Body<core::SnapshotRequestMsg> V>
void fields(IO& io, V& v) { io(fixed64(v.digest), v.entry_count); }

template <typename IO, Body<core::SnapshotMsg> V>
void fields(IO& io, V& v) { io(fixed64(v.digest), v.entry_count, v.blob); }

template <typename IO, Body<core::SnapshotAckMsg> V>
void fields(IO& io, V& v) { io(fixed64(v.digest), v.entry_count); }

template <typename IO, Body<core::AttachClaim> V>
void fields(IO& io, V& v) { io(v.mh, v.claim_seq, v.gid); }

template <typename IO, Body<core::ReconcileMsg> V>
void fields(IO& io, V& v) { io(v.reconcile_id, v.claims); }

template <typename IO, Body<core::ReconcileAckMsg> V>
void fields(IO& io, V& v) { io(v.reconcile_id, v.superseding); }

template <typename IO, Body<core::NeJoinRequestMsg> V>
void fields(IO& io, V& v) { io(v.joiner, v.notify_id); }

template <typename IO, Body<core::NeLeaveRequestMsg> V>
void fields(IO& io, V& v) { io(v.leaver, v.notify_id); }

// --- edge plane --------------------------------------------------------------

template <typename IO, Body<core::MhRequestMsg> V>
void fields(IO& io, V& v) { io(v.kind, v.mh, v.old_ap, v.gid); }

template <typename IO, Body<core::MhAckMsg> V>
void fields(IO& io, V& v) { io(v.kind, v.mh, v.gid); }

template <typename IO, Body<core::MhHeartbeatMsg> V>
void fields(IO& io, V& v) { io(v.mh); }

// --- query plane -------------------------------------------------------------

template <typename IO, Body<core::QueryRequestMsg> V>
void fields(IO& io, V& v) { io(v.query_id, v.reply_to, v.gid); }

template <typename IO, Body<core::QueryReplyMsg> V>
void fields(IO& io, V& v) { io(v.query_id, v.members); }

// --- flat-ring baseline ------------------------------------------------------

template <typename IO, Body<flatring::TokenEntry> V>
void fields(IO& io, V& v) { io(v.op, v.remaining_hops); }

template <typename IO, Body<flatring::RingTokenMsg> V>
void fields(IO& io, V& v) { io(v.entries, v.wake_target); }

template <typename IO, Body<flatring::WakeMsg> V>
void fields(IO& io, V& v) { io(v.wake_id, v.origin); }

// --- gossip baseline ---------------------------------------------------------

template <typename IO, Body<gossip::Update> V>
void fields(IO& io, V& v) { io(v.op, v.budget); }

template <typename IO, Body<gossip::PingMsg> V>
void fields(IO& io, V& v) { io(v.ping_id, v.updates); }

template <typename IO, Body<gossip::AckMsg> V>
void fields(IO& io, V& v) { io(v.ping_id, v.updates); }

}  // namespace rgb::wire
