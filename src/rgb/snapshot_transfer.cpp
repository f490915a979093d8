#include "rgb/snapshot_transfer.hpp"

#include "rgb/network_entity.hpp"
#include "wire/snapshot.hpp"

namespace rgb::core {

namespace {
/// Debounce for the snapshot flush: a dirty NE pushes its snapshot after
/// this long with no further table change. Arrivals during a surge keep
/// pushing the timer back, so a 20k-member join phase ships one snapshot
/// per edge instead of 20k notifications. The window must exceed the
/// inter-round gaps of a sustained surge (rounds aggregate a few ms of
/// arrivals each), otherwise mid-surge gaps leak partial snapshots; it is
/// also the per-tier latency a change pays to reach the bottom in this
/// mode, so it trades bulk efficiency against freshness.
constexpr sim::Duration kSnapshotFlushQuiet = sim::msec(50);
}  // namespace

void SnapshotTransfer::schedule_flush(bool to_ring, bool to_child) {
  if (!to_ring && !to_child) return;
  dirty_ring_ = dirty_ring_ || to_ring;
  dirty_child_ = dirty_child_ || to_child;
  // Debounce: every fresh mark pushes the flush out by another quiet
  // window, so a sustained surge ships one snapshot at its end, not one
  // per round.
  ne_.cancel_timer(flush_timer_);
  flush_timer_ = ne_.set_timer(kSnapshotFlushQuiet, [this]() { flush(); });
}

void SnapshotTransfer::reset() {
  ne_.cancel_timer(flush_timer_);
  for (auto& [dest, pending] : pending_pushes_) ne_.cancel_timer(pending.timer);
  pending_pushes_.clear();
  dirty_ring_ = false;
  dirty_child_ = false;
}

const SnapshotTransfer::Encoded& SnapshotTransfer::encoded() {
  const ViewDigest digest = ne_.dir_.combined_digest();
  if (!encoded_ || encoded_->digest != digest.hash ||
      encoded_->count != digest.count) {
    SnapshotMsg msg;
    msg.digest = digest.hash;
    msg.entry_count = digest.count;
    rgb::wire::encode_snapshot(ne_.dir_.export_all(), msg.blob);
    const auto bytes = wire_size(msg);
    encoded_ = Encoded{std::move(msg), digest.hash, digest.count, bytes};
  }
  return *encoded_;
}

void SnapshotTransfer::flush() {
  const bool to_ring = dirty_ring_ && ne_.is_leader() && ne_.roster_.size() > 1;
  const bool to_child =
      dirty_child_ && ne_.child_.valid() && ne_.config_.disseminate_down;
  dirty_ring_ = false;
  dirty_child_ = false;
  // Every push of one flush (and any retransmission until the table moves
  // again) shares one encoded blob.
  const auto start = [this](NodeId dest) {
    PendingPush& pending = pending_pushes_[dest];
    ne_.cancel_timer(pending.timer);
    pending.retx = 0;
    push(dest, pending);
  };
  if (to_ring) {
    for (const NodeId peer : ne_.roster_) {
      if (peer != ne_.id()) start(peer);
    }
  }
  if (to_child) start(ne_.child_);
}

void SnapshotTransfer::push(NodeId dest, PendingPush& pending) {
  const Encoded& snapshot = encoded();
  ne_.send(dest, kind::kSnapshot, snapshot.payload, snapshot.bytes);
  ne_.metrics_.snapshots_sent.increment();
  pending.digest = snapshot.digest;
  pending.timer = ne_.set_timer(ne_.config_.notify_timeout,
                                [this, dest]() { on_push_timeout(dest); });
}

void SnapshotTransfer::on_push_timeout(NodeId dest) {
  const auto it = pending_pushes_.find(dest);
  if (it == pending_pushes_.end()) return;
  if (++it->second.retx > ne_.config_.max_notify_retx) {
    // The edge is unreachable past the budget; anti-entropy probing and
    // the next flush remain the safety net (monotone import makes any
    // later, fresher transfer equivalent).
    ne_.metrics_.snapshot_push_give_ups.increment();
    pending_pushes_.erase(it);
    return;
  }
  ne_.metrics_.snapshot_retransmits.increment();
  // Retransmit the *current* table, not the stale blob: the receiver's
  // import is monotone, so fresher is always at least as good, and the
  // pending digest must track what was actually sent for the ack match.
  // The cached payload makes this a shared-refcount send unless the table
  // actually moved since the last encode.
  push(dest, it->second);
}

void SnapshotTransfer::handle_ack(const SnapshotAckMsg& msg, NodeId from) {
  const auto it = pending_pushes_.find(from);
  if (it == pending_pushes_.end()) return;
  // Only the ack of the *latest* push clears the pending entry — a stale
  // ack racing a fresher flush must not silence its retransmission.
  if (it->second.digest != msg.digest) return;
  ne_.cancel_timer(it->second.timer);
  pending_pushes_.erase(it);
}

void SnapshotTransfer::request_from(NodeId peer) {
  if (!peer.valid() || peer == ne_.id()) return;
  const ViewDigest mine = ne_.dir_.combined_digest();
  ne_.send(peer, kind::kSnapshotRequest,
           SnapshotRequestMsg{mine.hash, mine.count});
}

void SnapshotTransfer::handle_request(const SnapshotRequestMsg& msg,
                                      NodeId from) {
  const ViewDigest mine = ne_.dir_.combined_digest();
  if (mine.hash == msg.digest && mine.count == msg.entry_count) return;
  const Encoded& snapshot = encoded();
  ne_.send(from, kind::kSnapshot, snapshot.payload, snapshot.bytes);
  ne_.metrics_.snapshots_sent.increment();
}

void SnapshotTransfer::handle_snapshot(const SnapshotMsg& msg, NodeId from) {
  const ViewDigest mine = ne_.dir_.combined_digest();
  if (mine.hash == msg.digest && mine.count == msg.entry_count) {
    // Already in sync: skip the decode entirely, but still confirm the
    // receipt so a pending flush push stops retransmitting.
    ne_.send(from, kind::kSnapshotAck,
             SnapshotAckMsg{msg.digest, msg.entry_count});
    return;
  }
  // The blob is real wire bytes; a truncated or corrupted transfer decodes
  // to a clean error and is dropped *unacked* — the sender's retx loop
  // (flush pushes) or the anti-entropy tick retries the transfer.
  const auto decoded = rgb::wire::decode_snapshot(msg.blob);
  if (!decoded.ok()) {
    ne_.metrics_.snapshot_decode_errors.increment();
    ne_.obs_.tracer.record(ne_.now(), ne_.id(),
                           obs::FlightKind::kSnapshotRejected, from.value(),
                           ne_.metrics_.snapshot_decode_errors.value());
    return;
  }
  ne_.send(from, kind::kSnapshotAck,
           SnapshotAckMsg{msg.digest, msg.entry_count});
  if (!ne_.import(decoded.value())) return;
  ne_.metrics_.snapshots_applied.increment();
  ne_.obs_.tracer.record(ne_.now(), ne_.id(), obs::FlightKind::kSnapshotApplied,
                         from.value(), decoded.value().size());
  if (!ne_.config_.snapshot_join) return;
  // Cascade: state learned by snapshot (not by a token round, which every
  // ring peer sees anyway) is owed onward — across the ring when we lead
  // it, and down to our child ring's leader.
  schedule_flush(ne_.is_leader(),
                 ne_.child_.valid() && ne_.config_.disseminate_down);
}

}  // namespace rgb::core
