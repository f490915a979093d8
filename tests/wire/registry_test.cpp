// WireRegistry: per-kind round-trip properties over randomized messages,
// frame validation, and truncation/bit-flip robustness for every
// registered message kind (the in-process counterpart of `rgb_wire`).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "rgb/messages.hpp"
#include "wire/arbitrary.hpp"
#include "wire/codec.hpp"
#include "wire/registry.hpp"

namespace rgb::wire {
namespace {

using common::GroupId;

TEST(WireRegistry, CoversEveryProtocolKind) {
  const auto& registry = WireRegistry::global();
  // Every kind the RGB dispatcher handles plus the three baselines.
  for (const net::MessageKind kind :
       {core::kind::kToken, core::kind::kNotifyParent, core::kind::kNotifyChild,
        core::kind::kTokenPassAck, core::kind::kTokenRequest,
        core::kind::kTokenGrant, core::kind::kTokenRelease,
        core::kind::kHolderAck, core::kind::kRepair, core::kind::kChildRebind,
        core::kind::kProbe, core::kind::kProbeAck, core::kind::kMergeOffer,
        core::kind::kMergeAccept, core::kind::kRingReform,
        core::kind::kNeJoinRequest, core::kind::kNeLeaveRequest,
        core::kind::kViewSync, core::kind::kSnapshotRequest,
        core::kind::kSnapshot, core::kind::kMhRequest, core::kind::kMhAck,
        core::kind::kMhHeartbeat, core::kind::kQueryRequest,
        core::kind::kQueryReply, net::MessageKind{101}, net::MessageKind{102},
        net::MessageKind{103}, net::MessageKind{111}, net::MessageKind{112},
        net::MessageKind{121}, net::MessageKind{122}}) {
    const auto* codec = registry.find(kind);
    ASSERT_NE(codec, nullptr) << "kind " << kind << " unregistered";
    EXPECT_NE(codec->name, nullptr);
  }
}

/// Property: for every registered kind, randomized messages (both realistic
/// and unrestricted field ranges) encode -> decode -> re-encode
/// byte-identically, and encoded_size always equals the actual encoding.
TEST(WireRegistry, EveryKindRoundTripsByteIdentically) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{0x5EED1E5};
  for (const auto kind : registry.kinds()) {
    for (int iter = 0; iter < 64; ++iter) {
      ArbitraryOptions options;
      options.realistic = iter % 2 == 0;
      const auto payload = arbitrary_payload(kind, rng, options);
      std::vector<std::uint8_t> encoded;
      ASSERT_TRUE(registry.encode(kind, payload, encoded)) << "kind " << kind;
      ASSERT_EQ(encoded.size(), registry.encoded_size(kind, payload))
          << "kind " << kind;

      const auto decoded = registry.decode(encoded);
      ASSERT_TRUE(decoded.ok())
          << "kind " << kind << ": " << to_string(decoded.error().status)
          << " at " << decoded.error().offset;
      EXPECT_EQ(decoded.value().kind, kind);

      std::vector<std::uint8_t> reencoded;
      ASSERT_TRUE(registry.encode(decoded.value().kind,
                                  decoded.value().payload, reencoded));
      EXPECT_EQ(reencoded, encoded) << "kind " << kind << " iter " << iter;
    }
  }
}

/// Property: truncating a valid encoding at any point yields a clean
/// decode error (never UB, never an accept with trailing garbage).
TEST(WireRegistry, TruncationAlwaysRejectsCleanly) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{0x7A11};
  for (const auto kind : registry.kinds()) {
    const auto payload = arbitrary_payload(kind, rng);
    std::vector<std::uint8_t> encoded;
    ASSERT_TRUE(registry.encode(kind, payload, encoded));
    for (std::size_t len = 0; len < encoded.size(); ++len) {
      const auto decoded = registry.decode(encoded.data(), len);
      EXPECT_FALSE(decoded.ok())
          << "kind " << kind << ": prefix of " << len << "/" << encoded.size()
          << " bytes decoded";
    }
  }
}

/// Property: bit-flipped encodings either decode cleanly (the flip hit a
/// don't-care bit pattern that still spells a canonical message) or return
/// a clean error — and everything accepted re-encodes byte-identically.
TEST(WireRegistry, BitFlipsAreAcceptedCanonicallyOrRejectedCleanly) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{0xF11B5ULL};
  const auto kinds = registry.kinds();
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const auto kind = kinds[rng.next_below(kinds.size())];
    const auto payload = arbitrary_payload(kind, rng);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(registry.encode(kind, payload, bytes));
    ASSERT_FALSE(bytes.empty());
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1U << rng.next_below(8));
    const auto decoded = registry.decode(bytes);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    std::vector<std::uint8_t> reencoded;
    ASSERT_TRUE(registry.encode(decoded.value().kind, decoded.value().payload,
                                reencoded));
    EXPECT_EQ(reencoded, bytes) << "accepted mutant must be canonical";
  }
  EXPECT_GT(rejected, 0) << "corpus never produced a rejecting flip";
}

TEST(WireRegistry, FrameValidation) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{42};
  const auto payload = arbitrary_payload(core::kind::kTokenGrant, rng);
  std::vector<std::uint8_t> encoded;
  ASSERT_TRUE(registry.encode(core::kind::kTokenGrant, payload, encoded));

  // Unknown version byte.
  auto bad_version = encoded;
  bad_version[0] = kWireVersion + 1;
  EXPECT_EQ(registry.decode(bad_version).error().status,
            DecodeStatus::kBadVersion);

  // Unregistered kind.
  std::vector<std::uint8_t> unknown_kind;
  Writer<VectorSink> w{VectorSink{unknown_kind}};
  w.u8(kWireVersion);
  w.varint(9999);
  EXPECT_EQ(registry.decode(unknown_kind).error().status,
            DecodeStatus::kUnknownKind);

  // Trailing garbage after a complete message.
  auto trailing = encoded;
  trailing.push_back(0x00);
  EXPECT_EQ(registry.decode(trailing).error().status,
            DecodeStatus::kTrailingBytes);

  // Unregistered kinds / mismatched payloads size to 0 (caller keeps its
  // estimate).
  EXPECT_EQ(registry.encoded_size(9999, payload), 0u);
  EXPECT_EQ(
      registry.encoded_size(core::kind::kToken, payload),  // wrong type
      0u);
}

/// A bad enum byte inside the body (message-level corruption, not frame).
TEST(WireRegistry, BadEnumRejected) {
  const auto& registry = WireRegistry::global();
  core::MhRequestMsg msg{core::MhRequestKind::kJoin, common::Guid{5},
                         common::NodeId{}, common::GroupId{}};
  std::vector<std::uint8_t> encoded;
  ASSERT_TRUE(registry.encode(core::kind::kMhRequest, msg, encoded));
  // Body layout: [frame][kind-enum u8]... — the enum byte follows the
  // 1-byte version and 1-byte kind varint.
  encoded[2] = 250;
  EXPECT_EQ(registry.decode(encoded).error().status, DecodeStatus::kBadEnum);
}

// --- ViewSync bucket fields (v5) ---------------------------------------------

/// A ViewSync frame: [version][kind] then the v4 body of `msg` as written
/// field by field here, so the expected bytes do not come from the codec
/// under test; `tail` then runs on the writer (the v5 bucket fields, or
/// hand-made hostile ones) and `head` is the phase byte's flag bits.
template <typename Tail>
std::vector<std::uint8_t> view_sync_frame(const core::ViewSyncMsg& msg,
                                          std::uint8_t head, Tail tail) {
  std::vector<std::uint8_t> out;
  Writer<VectorSink> w{VectorSink{out}};
  w.u8(kWireVersion);
  w.varint(core::kind::kViewSync);
  w.u8(static_cast<std::uint8_t>(msg.phase) | head);
  w.u64le(msg.digest);
  w.varint(msg.entry_count);
  w.boolean(msg.reply_requested);
  w.varint(0);  // entries
  w.varint(0);  // roster
  w.id(msg.leader);
  w.varint(0);  // group digests
  w.varint(msg.sync_gids.size());
  for (const GroupId gid : msg.sync_gids) w.id(gid);
  tail(w);
  return out;
}

TEST(WireRegistry, ViewSyncWithoutBucketFieldsEncodesAsV4) {
  const auto& registry = WireRegistry::global();
  core::ViewSyncMsg msg;
  msg.phase = core::ViewSyncMsg::Phase::kFull;
  msg.digest = 0x0123456789ABCDEFULL;
  msg.entry_count = 2000;
  msg.reply_requested = true;
  msg.sync_gids = {GroupId{1}, GroupId{7}};
  std::vector<std::uint8_t> encoded;
  ASSERT_TRUE(registry.encode(core::kind::kViewSync, msg, encoded));
  EXPECT_EQ(encoded, view_sync_frame(msg, 0, [](auto&) {}));
}

TEST(WireRegistry, ViewSyncBucketFieldsRoundTripBehindTheFlag) {
  const auto& registry = WireRegistry::global();
  core::ViewSyncMsg msg;
  msg.phase = core::ViewSyncMsg::Phase::kBuckets;
  msg.group_buckets.push_back(core::GroupBuckets{GroupId{3}, {}});
  msg.group_buckets.back().hashes[5] = 0xFEED;
  std::vector<std::uint8_t> encoded;
  ASSERT_TRUE(registry.encode(core::kind::kViewSync, msg, encoded));
  ASSERT_EQ(encoded.size(), registry.encoded_size(core::kind::kViewSync, msg));
  EXPECT_EQ(encoded[2], 0x80 | 4) << "phase kBuckets with the bucket flag";
  const auto decoded = registry.decode(encoded);
  ASSERT_TRUE(decoded.ok()) << to_string(decoded.error().status);
  const auto& back = decoded.value().payload.get<core::ViewSyncMsg>();
  EXPECT_EQ(back.group_buckets, msg.group_buckets);

  msg.phase = core::ViewSyncMsg::Phase::kDiff;
  msg.group_buckets.clear();
  msg.bucket_scope = {core::BucketScope{GroupId{3}, {0, 9, 127}}};
  encoded.clear();
  ASSERT_TRUE(registry.encode(core::kind::kViewSync, msg, encoded));
  const auto scoped = registry.decode(encoded);
  ASSERT_TRUE(scoped.ok()) << to_string(scoped.error().status);
  EXPECT_EQ(scoped.value().payload.get<core::ViewSyncMsg>().bucket_scope,
            msg.bucket_scope);
}

/// Hostile bucket fields a decoder must refuse: a digest vector of the
/// wrong length, a bucket index of kBucketCount or more, indices out of order
/// or repeated, and the flag without any bucket field.
TEST(WireRegistry, ViewSyncHostileBucketFieldsAreRejected) {
  const auto& registry = WireRegistry::global();
  core::ViewSyncMsg msg;
  msg.phase = core::ViewSyncMsg::Phase::kFull;
  // One group's digests, n zero hashes, then a 64-bucket scope: long
  // enough that only the length itself can make n != kBucketCount fail.
  const auto digests_of_length = [](std::uint64_t n) {
    return [n](Writer<VectorSink>& w) {
      w.varint(1);  // one group
      w.id(GroupId{1});
      w.varint(n);
      for (std::uint64_t i = 0; i < n; ++i) w.u64le(0);
      w.varint(1);  // one scope
      w.id(GroupId{1});
      w.varint(64);
      for (std::uint64_t b = 0; b < 64; ++b) w.varint(b);
    };
  };
  const auto scope_of = [](std::vector<std::uint64_t> buckets) {
    return [buckets](Writer<VectorSink>& w) {
      w.varint(0);  // no digests
      w.varint(1);  // one group
      w.id(GroupId{1});
      w.varint(buckets.size());
      for (const std::uint64_t b : buckets) w.varint(b);
    };
  };
  const auto status_of = [&](const std::vector<std::uint8_t>& frame) {
    return registry.decode(frame).error().status;
  };
  ASSERT_TRUE(
      registry.decode(view_sync_frame(msg, 0x80, digests_of_length(128))).ok());
  ASSERT_TRUE(registry.decode(view_sync_frame(msg, 0x80, scope_of({0, 127})))
                  .ok());
  // The wrong length is refused right after it is read.
  const std::size_t digests_at =
      view_sync_frame(msg, 0x80, [](auto&) {}).size() + 2;  // count, gid
  for (const std::uint64_t n : {127, 129, 256}) {
    const auto error =
        registry.decode(view_sync_frame(msg, 0x80, digests_of_length(n)))
            .error();
    EXPECT_EQ(error.status, DecodeStatus::kMalformed) << n << " hashes";
    EXPECT_EQ(error.offset, digests_at + varint_size(n)) << n << " hashes";
  }
  EXPECT_EQ(status_of(view_sync_frame(msg, 0x80, scope_of({0, 128}))),
            DecodeStatus::kMalformed);
  EXPECT_EQ(status_of(view_sync_frame(msg, 0x80, scope_of({1u << 20}))),
            DecodeStatus::kMalformed);
  EXPECT_EQ(status_of(view_sync_frame(msg, 0x80, scope_of({9, 3}))),
            DecodeStatus::kMalformed);
  EXPECT_EQ(status_of(view_sync_frame(msg, 0x80, scope_of({3, 3}))),
            DecodeStatus::kMalformed);
  EXPECT_EQ(status_of(view_sync_frame(msg, 0x80, [](auto& w) {
              w.varint(0);
              w.varint(0);
            })),
            DecodeStatus::kMalformed);
  // Bucket fields without the flag are trailing bytes; the flag without
  // them is a truncated frame; a phase past kBuckets is a bad enum.
  EXPECT_EQ(status_of(view_sync_frame(msg, 0, scope_of({1}))),
            DecodeStatus::kTrailingBytes);
  EXPECT_EQ(status_of(view_sync_frame(msg, 0x80, [](auto&) {})),
            DecodeStatus::kTruncated);
  core::ViewSyncMsg past = msg;
  past.phase = static_cast<core::ViewSyncMsg::Phase>(5);
  EXPECT_EQ(status_of(view_sync_frame(past, 0, [](auto&) {})),
            DecodeStatus::kBadEnum);
}

}  // namespace
}  // namespace rgb::wire
