#include "wire/registry.hpp"

#include <any>
#include <cassert>
#include <utility>

#include "tree/tree_membership.hpp"
#include "wire/message_codec.hpp"

namespace rgb::wire {

namespace {

template <typename M>
WireRegistry::Codec make_codec(const char* name) {
  return WireRegistry::Codec{
      name,
      +[](const net::Payload& payload) -> std::uint32_t {
        Encoder<CountingSink> io;
        io(payload.get<M>());
        return static_cast<std::uint32_t>(io.writer().sink().size());
      },
      +[](const net::Payload& payload, std::vector<std::uint8_t>& out) {
        Encoder<VectorSink>{VectorSink{out}}(payload.get<M>());
      },
      +[](Reader& reader, net::Payload& out) -> DecodeStatus {
        M value{};
        Decoder{reader}(value);
        if (!reader.ok()) return reader.error().status;
        out = net::Payload{std::move(value)};
        return DecodeStatus::kOk;
      }};
}

}  // namespace

void WireRegistry::add(net::MessageKind kind, Codec codec) {
  if (kind >= by_kind_.size()) {
    by_kind_.resize(kind + 1, Codec{nullptr, nullptr, nullptr, nullptr});
    present_.resize(kind + 1, false);
  }
  assert(!present_[kind] && "kind registered twice");
  by_kind_[kind] = codec;
  present_[kind] = true;
}

const WireRegistry::Codec* WireRegistry::find(net::MessageKind kind) const {
  if (kind >= present_.size() || !present_[kind]) return nullptr;
  return &by_kind_[kind];
}

std::vector<net::MessageKind> WireRegistry::kinds() const {
  std::vector<net::MessageKind> out;
  for (net::MessageKind k = 0; k < present_.size(); ++k) {
    if (present_[k]) out.push_back(k);
  }
  return out;
}

std::uint32_t WireRegistry::encoded_size(net::MessageKind kind,
                                         const net::Payload& payload) const {
  const Codec* codec = find(kind);
  if (codec == nullptr) return 0;
  try {
    return 1 + varint_size(kind) + codec->body_size(payload);
  } catch (const std::bad_any_cast&) {
    return 0;  // payload is not the registered type; caller keeps estimate
  }
}

bool WireRegistry::encode(net::MessageKind kind, const net::Payload& payload,
                          std::vector<std::uint8_t>& out) const {
  const Codec* codec = find(kind);
  if (codec == nullptr) return false;
  try {
    Writer<VectorSink> w{VectorSink{out}};
    w.u8(kWireVersion);
    w.varint(kind);
    codec->encode_body(payload, out);
    return true;
  } catch (const std::bad_any_cast&) {
    return false;
  }
}

Result<Decoded> WireRegistry::decode(const std::uint8_t* data,
                                     std::size_t size) const {
  Reader reader{data, size};
  const std::uint8_t version = reader.u8();
  if (reader.ok() && version != kWireVersion) {
    reader.fail(DecodeStatus::kBadVersion);
  }
  const std::uint64_t kind_raw = reader.varint();
  if (!reader.ok()) return reader.error();
  if (kind_raw > UINT32_MAX) {
    return DecodeError{DecodeStatus::kUnknownKind, reader.pos()};
  }
  const auto kind = static_cast<net::MessageKind>(kind_raw);
  const Codec* codec = find(kind);
  if (codec == nullptr) {
    return DecodeError{DecodeStatus::kUnknownKind, reader.pos()};
  }
  Decoded decoded;
  decoded.kind = kind;
  const DecodeStatus status = codec->decode_body(reader, decoded.payload);
  if (status != DecodeStatus::kOk) {
    return DecodeError{status, reader.error().offset};
  }
  if (!reader.exhausted()) {
    return DecodeError{DecodeStatus::kTrailingBytes, reader.pos()};
  }
  return decoded;
}

const WireRegistry& WireRegistry::global() {
  static const WireRegistry registry = [] {
    WireRegistry r;
    // RGB proposal plane.
    r.add(core::kind::kToken, make_codec<core::TokenMsg>("token"));
    r.add(core::kind::kNotifyParent,
          make_codec<core::NotifyMsg>("notify-parent"));
    r.add(core::kind::kNotifyChild,
          make_codec<core::NotifyMsg>("notify-child"));
    // RGB control plane.
    r.add(core::kind::kTokenPassAck,
          make_codec<core::TokenPassAckMsg>("token-pass-ack"));
    r.add(core::kind::kTokenRequest,
          make_codec<core::TokenRequestMsg>("token-request"));
    r.add(core::kind::kTokenGrant,
          make_codec<core::TokenGrantMsg>("token-grant"));
    r.add(core::kind::kTokenRelease,
          make_codec<core::TokenReleaseMsg>("token-release"));
    r.add(core::kind::kHolderAck, make_codec<core::HolderAckMsg>("holder-ack"));
    r.add(core::kind::kRepair, make_codec<core::RepairMsg>("repair"));
    r.add(core::kind::kChildRebind,
          make_codec<core::ChildRebindMsg>("child-rebind"));
    // kProbe carries an empty-op TokenMsg (send_token_to picks the kind by
    // cargo); kProbeAck is currently unsent but keeps its kind and codec.
    r.add(core::kind::kProbe, make_codec<core::TokenMsg>("probe"));
    r.add(core::kind::kProbeAck, make_codec<core::ProbeAckMsg>("probe-ack"));
    r.add(core::kind::kMergeOffer,
          make_codec<core::MergeOfferMsg>("merge-offer"));
    r.add(core::kind::kMergeAccept,
          make_codec<core::MergeAcceptMsg>("merge-accept"));
    r.add(core::kind::kRingReform,
          make_codec<core::RingReformMsg>("ring-reform"));
    r.add(core::kind::kNeJoinRequest,
          make_codec<core::NeJoinRequestMsg>("ne-join-request"));
    r.add(core::kind::kNeLeaveRequest,
          make_codec<core::NeLeaveRequestMsg>("ne-leave-request"));
    r.add(core::kind::kViewSync, make_codec<core::ViewSyncMsg>("view-sync"));
    r.add(core::kind::kSnapshotRequest,
          make_codec<core::SnapshotRequestMsg>("snapshot-request"));
    r.add(core::kind::kSnapshot, make_codec<core::SnapshotMsg>("snapshot"));
    r.add(core::kind::kSnapshotAck,
          make_codec<core::SnapshotAckMsg>("snapshot-ack"));
    r.add(core::kind::kReconcile,
          make_codec<core::ReconcileMsg>("reconcile"));
    r.add(core::kind::kReconcileAck,
          make_codec<core::ReconcileAckMsg>("reconcile-ack"));
    // RGB stability plane (multi-observer cut detection).
    r.add(core::kind::kAlert, make_codec<core::AlertMsg>("alert"));
    r.add(core::kind::kAlertAck, make_codec<core::AlertAckMsg>("alert-ack"));
    // RGB edge plane.
    r.add(core::kind::kMhRequest, make_codec<core::MhRequestMsg>("mh-request"));
    r.add(core::kind::kMhAck, make_codec<core::MhAckMsg>("mh-ack"));
    r.add(core::kind::kMhHeartbeat,
          make_codec<core::MhHeartbeatMsg>("mh-heartbeat"));
    // RGB query plane.
    r.add(core::kind::kQueryRequest,
          make_codec<core::QueryRequestMsg>("query-request"));
    r.add(core::kind::kQueryReply,
          make_codec<core::QueryReplyMsg>("query-reply"));
    // Tree baseline: the flooded proposal is a bare MembershipOp; queries
    // reuse the RGB query structs.
    r.add(tree::kTreeProposal,
          make_codec<core::MembershipOp>("tree-proposal"));
    r.add(tree::kTreeQuery, make_codec<core::QueryRequestMsg>("tree-query"));
    r.add(tree::kTreeQueryReply,
          make_codec<core::QueryReplyMsg>("tree-query-reply"));
    // Flat-ring baseline.
    r.add(flatring::kRingToken,
          make_codec<flatring::RingTokenMsg>("flatring-token"));
    r.add(flatring::kRingWake, make_codec<flatring::WakeMsg>("flatring-wake"));
    // Gossip baseline.
    r.add(gossip::kPing, make_codec<gossip::PingMsg>("gossip-ping"));
    r.add(gossip::kAck, make_codec<gossip::AckMsg>("gossip-ack"));
    return r;
  }();
  return registry;
}

}  // namespace rgb::wire
