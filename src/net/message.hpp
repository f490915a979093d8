// Message envelope carried by the simulated network.
//
// The network layer is protocol-agnostic: payloads are type-erased and each
// protocol family reads them back in its `deliver` handler. A small integer
// `kind` rides along for metering (per-message-type counters in benches)
// without forcing the network to know protocol types.
//
// Payloads are shared-immutable: one allocation holds the value, and every
// copy of the envelope — fan-out sends to k ring peers, the in-flight
// delivery closure, test taps recording traffic — shares it by refcount.
// The previous `std::any` member re-copied the full payload (token op
// vectors, member tables) at each of those points.
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "common/ids.hpp"

namespace rgb::net {

using common::NodeId;

/// Per-message metering category. Values are protocol-defined; the network
/// only aggregates counts per kind. Kind 0 means "uncategorised".
using MessageKind = std::uint32_t;

/// Immutable, type-erased message payload. Construct it from any copyable
/// value (implicitly, at send sites); read it back with `get<T>()`, which
/// throws std::bad_any_cast on a type mismatch exactly like the
/// std::any_cast it replaces.
///
/// Two storage paths, both allocation-light:
///  * small trivially-copyable messages (acks, grants, heartbeats — the
///    bulk of control traffic) live inline: zero allocations, copied by
///    value (std::any heap-allocated anything over one pointer);
///  * everything else (token op vectors, member tables) is
///    reference-counted and shared: one allocation total, no matter how
///    many envelope copies a fan-out send or delivery closure makes.
class Payload {
 public:
  Payload() = default;

  template <typename T, typename Decayed = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<Decayed, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<Decayed>()) {
      const Decayed materialized(std::forward<T>(value));
      std::memcpy(inline_storage_, &materialized, sizeof(Decayed));
      inline_type_ = &typeid(Decayed);
    } else {
      shared_ = std::make_shared<const std::any>(std::in_place_type<Decayed>,
                                                 std::forward<T>(value));
    }
  }

  /// The held value; throws std::bad_any_cast when empty or of another type.
  template <typename T>
  [[nodiscard]] const T& get() const {
    if (inline_type_ != nullptr) {
      if (*inline_type_ != typeid(T)) throw std::bad_any_cast{};
      return *std::launder(reinterpret_cast<const T*>(inline_storage_));
    }
    if (shared_ == nullptr) throw std::bad_any_cast{};
    return std::any_cast<const T&>(*shared_);
  }

 private:
  static constexpr std::size_t kInlineBytes = 24;

  template <typename T>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(T) <= kInlineBytes && std::is_trivially_copyable_v<T> &&
           alignof(T) <= alignof(std::max_align_t);
  }

  std::shared_ptr<const std::any> shared_;
  alignas(std::max_align_t) unsigned char inline_storage_[kInlineBytes] = {};
  const std::type_info* inline_type_ = nullptr;
};

struct Envelope {
  NodeId src;
  NodeId dst;
  MessageKind kind = 0;
  /// Approximate wire size; used only by byte counters, not by latency.
  std::uint32_t size_bytes = 64;
  Payload payload;
  /// Causal-span metadata stamped by the network's TraceHooks: the op
  /// trace this message carries work for and the send span the delivery
  /// handler parents under. Sim-only observability state, deliberately
  /// NOT wire-encoded (the MembershipOp::born convention): the byte
  /// counters and codecs never see it, and a real transport implements
  /// the same hook contract without framing it. 0 = untraced. Declared
  /// after the payload so existing aggregate-init sites stay valid.
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
};

}  // namespace rgb::net
