// Wire codec primitives: the byte-level vocabulary every message format in
// src/wire/ is built from.
//
// Format conventions (version 1):
//   * integers are unsigned LEB128 varints in *minimal* form — a decoder
//     rejects redundant continuation bytes, so every decodable byte string
//     has exactly one value and re-encoding a decoded message reproduces
//     the input byte-for-byte (the round-trip property rgb_wire fuzzes);
//   * 64-bit hashes/digests are fixed-width little-endian (varints would
//     average 9.2 bytes on uniformly random values);
//   * strong ids encode as varint(value + 1) so the "no id" sentinel
//     (value 2^64-1, which wraps to 0) costs one byte instead of ten —
//     invalid ids are common (op provenance fields, cross-ring syncs);
//   * sequences are length-prefixed; a decoder validates the length against
//     the remaining input before reserving memory, so a corrupted length
//     can never trigger a giant allocation;
//   * bools are one byte, 0 or 1; enums one byte, range-checked.
//
// Error handling is expected-style, not exceptions: `Reader` is sticky —
// the first failed read records a DecodeError (status + input offset) and
// every later read returns zeroes — so message decoders are written as
// straight-line field reads with a single `ok()` check at the end. All
// reads are bounds-checked; truncated or bit-flipped input yields a clean
// error, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace rgb::wire {

/// Version byte leading every framed message (WireRegistry::encode).
/// v5: bucket-level anti-entropy — the ViewSync kBuckets phase with
/// per-group bucket digests, and a bucket scope on kFull / kDiff, flagged
/// by bit 7 of the phase byte (ViewSync frames without them, and every
/// other body, encode as in v4).
/// v4: multi-group serving — GroupId on MembershipOp / TableEntry /
/// AttachClaim / MhRequest / MhAck / QueryRequest bodies, packed per-group
/// digests + sync scope on ViewSync, group-major snapshot format.
/// v3: kAlert / kAlertAck stability-plane kinds.
/// v2: attachment-epoch claim_seq on MembershipOp / TableEntry bodies,
/// kReconcile / kReconcileAck / kSnapshotAck kinds.
inline constexpr std::uint8_t kWireVersion = 5;

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,      ///< input ended mid-field, or a length exceeds the input
  kBadVersion,     ///< frame version byte unknown
  kUnknownKind,    ///< frame kind not in the registry
  kBadEnum,        ///< enum byte outside its declared range
  kMalformed,      ///< structural rule violated (non-minimal varint,
                   ///< non-canonical bool, unsorted snapshot, overflow)
  kTrailingBytes,  ///< message decoded but input bytes remain
};

[[nodiscard]] const char* to_string(DecodeStatus status);

struct DecodeError {
  DecodeStatus status = DecodeStatus::kOk;
  std::size_t offset = 0;  ///< input offset where decoding gave up
};

/// Minimal expected-style result: either a value or a DecodeError.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(DecodeError error) : error_(error) {}   // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const { return *value_; }
  [[nodiscard]] T& value() { return *value_; }
  [[nodiscard]] const DecodeError& error() const { return error_; }

 private:
  std::optional<T> value_;
  DecodeError error_{};
};

// --- sinks -------------------------------------------------------------------

/// Counts bytes without storing them: `encoded_size` shares the exact field
/// walk with the real encoder, so sizing a message for metering allocates
/// nothing (the metering hook runs once per simulated send — hot path).
class CountingSink {
 public:
  void put(std::uint8_t) { ++size_; }
  void append(const std::uint8_t*, std::size_t n) { size_ += n; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Appends to a caller-owned byte vector.
class VectorSink {
 public:
  explicit VectorSink(std::vector<std::uint8_t>& out) : out_(&out) {}
  void put(std::uint8_t b) { out_->push_back(b); }
  void append(const std::uint8_t* data, std::size_t n) {
    out_->insert(out_->end(), data, data + n);
  }
  [[nodiscard]] std::size_t size() const { return out_->size(); }

 private:
  std::vector<std::uint8_t>* out_;
};

// --- writer ------------------------------------------------------------------

template <typename Sink>
class Writer {
 public:
  explicit Writer(Sink sink = Sink{}) : sink_(std::move(sink)) {}

  void u8(std::uint8_t v) { sink_.put(v); }

  void u64le(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) sink_.put(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Unsigned LEB128, minimal form.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      sink_.put(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    sink_.put(static_cast<std::uint8_t>(v));
  }

  /// Strong id: varint(value + 1); the invalid sentinel wraps to 0.
  template <typename Tag>
  void id(common::StrongId<Tag> v) {
    varint(v.value() + 1);
  }

  void boolean(bool v) { sink_.put(v ? 1 : 0); }

  void bytes(const std::uint8_t* data, std::size_t n) { sink_.append(data, n); }

  [[nodiscard]] Sink& sink() { return sink_; }

 private:
  Sink sink_;
};

// --- reader ------------------------------------------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  [[nodiscard]] bool ok() const { return error_.status == DecodeStatus::kOk; }
  [[nodiscard]] const DecodeError& error() const { return error_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

  /// Records the first failure; later reads return zeroes.
  void fail(DecodeStatus status) {
    if (ok()) error_ = DecodeError{status, pos_};
  }

  std::uint8_t u8() {
    if (!ok()) return 0;
    if (pos_ >= size_) {
      fail(DecodeStatus::kTruncated);
      return 0;
    }
    return data_[pos_++];
  }

  std::uint64_t u64le() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{u8()} << (8 * i);
    return ok() ? v : 0;
  }

  /// Minimal-form LEB128: a redundant trailing 0x00 continuation byte or
  /// more than 10 bytes is kMalformed, not a second spelling of the value.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint8_t byte = u8();
      if (!ok()) return 0;
      if (i == 9 && byte > 1) {  // would overflow 64 bits
        fail(DecodeStatus::kMalformed);
        return 0;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) {  // non-minimal encoding
          fail(DecodeStatus::kMalformed);
          return 0;
        }
        return v;
      }
    }
    fail(DecodeStatus::kMalformed);  // 10 continuation bytes
    return 0;
  }

  template <typename Tag>
  common::StrongId<Tag> id() {
    const std::uint64_t raw = varint();
    if (!ok() || raw == 0) return common::StrongId<Tag>{};
    return common::StrongId<Tag>{raw - 1};
  }

  bool boolean() {
    const std::uint8_t b = u8();
    if (b > 1) fail(DecodeStatus::kMalformed);
    return ok() && b == 1;
  }

  /// Enum byte, valid in [0, max_value].
  template <typename E>
  E enum8(std::uint8_t max_value) {
    const std::uint8_t b = u8();
    if (b > max_value) fail(DecodeStatus::kBadEnum);
    return ok() ? static_cast<E>(b) : static_cast<E>(0);
  }

  /// Length prefix of a sequence whose elements occupy at least
  /// `min_element_bytes` each: validated against the remaining input so a
  /// corrupted length can neither over-allocate nor loop past the end.
  std::uint64_t length(std::size_t min_element_bytes) {
    const std::uint64_t n = varint();
    if (!ok()) return 0;
    if (min_element_bytes == 0) min_element_bytes = 1;
    if (n > remaining() / min_element_bytes) {
      fail(DecodeStatus::kTruncated);
      return 0;
    }
    return n;
  }

  /// View of the next `n` raw bytes (nullptr on truncation).
  const std::uint8_t* view(std::size_t n) {
    if (!ok()) return nullptr;
    if (n > remaining()) {
      fail(DecodeStatus::kTruncated);
      return nullptr;
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  DecodeError error_{};
};

/// Exact encoded size of one varint (used by size estimates and tests).
[[nodiscard]] constexpr std::uint32_t varint_size(std::uint64_t v) {
  std::uint32_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace rgb::wire
