// WireRegistry: per-kind round-trip properties over randomized messages,
// frame validation, and truncation/bit-flip robustness for every
// registered message kind (the in-process counterpart of `rgb_wire`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
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

// --- golden wire fingerprint -------------------------------------------------

/// FNV-1a over everything folded in; a byte string's length goes in first,
/// so frame boundaries count.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const std::vector<std::uint8_t>& bytes) {
    add(bytes.size());
    for (const std::uint8_t b : bytes) byte(b);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001B3ULL; }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Folds the decode verdict of `size` bytes: status and offset of a
/// reject, the re-encoding of an accept.
void add_verdict(Fingerprint& fp, const WireRegistry& registry,
                 const std::uint8_t* data, std::size_t size) {
  const auto decoded = registry.decode(data, size);
  if (!decoded.ok()) {
    fp.add(static_cast<std::uint64_t>(decoded.error().status));
    fp.add(decoded.error().offset);
    return;
  }
  std::vector<std::uint8_t> reencoded;
  ASSERT_TRUE(registry.encode(decoded.value().kind, decoded.value().payload,
                              reencoded));
  fp.add(static_cast<std::uint64_t>(DecodeStatus::kOk));
  fp.add(reencoded);
}

struct GoldenKind {
  net::MessageKind kind;
  std::uint64_t bytes;     ///< every byte of the kind's 400 encodings
  std::uint64_t verdicts;  ///< decode verdicts of their truncations/mutants
};

/// Pinned from the wire v5 codec. A deliberate format change re-pins the
/// kinds it moves, from the lines this test prints on a mismatch.
constexpr GoldenKind kGolden[] = {
    {1, 0x042FB1CD077C2B4DULL, 0x579C6861003FB3A9ULL},
    {2, 0xB80A1A5AB587B338ULL, 0x7FED0B8F12C45223ULL},
    {3, 0x89BCFD9DAD5E1816ULL, 0xC25115EE169C788EULL},
    {10, 0x63184E70E72B5625ULL, 0xE7B4B21953954537ULL},
    {11, 0xC1B5BB7A94B49727ULL, 0x263106A9F61980E7ULL},
    {12, 0x22A7608CE5DFE1A4ULL, 0x5FBD2E1C795CC9D2ULL},
    {13, 0x180D9C4E7199F23DULL, 0x21A830A521B89DDEULL},
    {14, 0x96B7A3B0D0DB2EDAULL, 0xC94310F5AE8486ECULL},
    {15, 0x348C7F8FBA098BF3ULL, 0x12C62C33065AD07CULL},
    {16, 0x837BB2101AC3135FULL, 0x923FDA05E6AA3ED4ULL},
    {17, 0xF4B93813102F71C3ULL, 0x030827B499E09DBCULL},
    {18, 0xCC704DCFD925A762ULL, 0xE97D09ACB06474D1ULL},
    {19, 0x68CE8EF3B7C4622BULL, 0xAAF4BECFBBE4BB1AULL},
    {20, 0x2A47AD2B9F8060CBULL, 0xBC0B6DCE64BA32C8ULL},
    {21, 0xAF251B4C8E038E72ULL, 0x5D2EC70A923607B1ULL},
    {22, 0x6D57B1D74336CEE0ULL, 0x8D0E8DAE8B214CE2ULL},
    {23, 0x76D156E316C78F49ULL, 0xDA221853098FFA96ULL},
    {24, 0xA9F456688EB944EAULL, 0xE1875E3B6A9FDDC4ULL},
    {25, 0x6ECC6F183A6DADB0ULL, 0xEAA44AC0E63FDBD0ULL},
    {26, 0x36EDB82D512945ADULL, 0xD4BCA61EDC2ABE45ULL},
    {27, 0x5A0B223E273FC1CFULL, 0x833F6EF2777B32EFULL},
    {28, 0x81A8D605DE13A8B0ULL, 0x3169E067DC1E8824ULL},
    {29, 0xDE8AF12222A7D743ULL, 0x117C146752A8256AULL},
    {30, 0x0D805010E1DFA923ULL, 0x0090D2DAD58CE435ULL},
    {31, 0x486B6C908EA2DA01ULL, 0xCA9B1FF20E85C90DULL},
    {32, 0xC3D4819841B374CCULL, 0x8A93ECF370961FB5ULL},
    {33, 0xA3D705D617E75A31ULL, 0x41C2FF4335C7CE37ULL},
    {34, 0x24F9EF6CBF8D9F7DULL, 0x58AC8433CDF6486EULL},
    {40, 0x092DC65250D8A974ULL, 0xC6970C3E31089B1DULL},
    {41, 0x8795577341E40148ULL, 0x677020875014FE37ULL},
    {101, 0xC3966A60A7F83893ULL, 0x2866CCBCF487F2B4ULL},
    {102, 0xD3B89FC31D154E43ULL, 0x64EFBF39D45823B3ULL},
    {103, 0x8A4609527334FBCAULL, 0x7CA1B98BC8006784ULL},
    {111, 0x7553D9FDAAF1B13CULL, 0x5B282119D29A0510ULL},
    {112, 0xD6F919B4F3E3E091ULL, 0x0386DA37255ACC8FULL},
    {121, 0x3B41ADA82C438E92ULL, 0xC5D51674CBBD7063ULL},
    {122, 0xEFCD79380BFD92ABULL, 0x4972E5B86D0CAE22ULL},
};

/// Every registered kind's encodings and hostile-input verdicts, pinned.
/// The round-trip properties above hold when encoder and decoder change
/// together; this fails on any change to the bytes a message encodes to
/// or to the status and offset at which a corrupt frame is refused. Each
/// kind draws from its own forked stream, so a change to one kind moves
/// only that kind's values.
TEST(WireRegistry, GoldenWireFingerprint) {
  const auto& registry = WireRegistry::global();
  const auto kinds = registry.kinds();
  for (const auto kind : kinds) {
    auto rng = common::RngStream{0x601DE7}.fork(std::to_string(kind));
    Fingerprint bytes, verdicts;
    for (int iter = 0; iter < 400; ++iter) {
      ArbitraryOptions options;
      options.realistic = iter % 2 == 0;
      const auto payload = arbitrary_payload(kind, rng, options);
      std::vector<std::uint8_t> frame;
      ASSERT_TRUE(registry.encode(kind, payload, frame)) << "kind " << kind;
      bytes.add(frame);
      const std::size_t prefixes = std::min<std::size_t>(frame.size(), 40);
      for (std::size_t len = 0; len < prefixes; ++len) {
        add_verdict(verdicts, registry, frame.data(), len);
      }
      for (int m = 0; m < 20; ++m) {
        auto mutant = frame;
        auto& at = mutant[rng.next_below(mutant.size())];
        if (m % 2 == 0) {
          at ^= static_cast<std::uint8_t>(1U << rng.next_below(8));
        } else {
          at = static_cast<std::uint8_t>(rng.next_below(256));
        }
        add_verdict(verdicts, registry, mutant.data(), mutant.size());
      }
    }
    const auto golden =
        std::find_if(std::begin(kGolden), std::end(kGolden),
                     [&](const GoldenKind& g) { return g.kind == kind; });
    char line[96];
    std::snprintf(line, sizeof line, "{%u, 0x%016llXULL, 0x%016llXULL},",
                  kind, static_cast<unsigned long long>(bytes.value()),
                  static_cast<unsigned long long>(verdicts.value()));
    if (golden == std::end(kGolden)) {
      ADD_FAILURE() << "unpinned kind: " << line;
      continue;
    }
    EXPECT_EQ(golden->bytes, bytes.value()) << "kind " << kind << ": " << line;
    EXPECT_EQ(golden->verdicts, verdicts.value())
        << "kind " << kind << ": " << line;
  }
  EXPECT_EQ(kinds.size(), std::size(kGolden)) << "a pinned kind is gone";
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
