// Snapshot state transfer (the kSnapshot bulk-join path): the NE component
// that ships whole member views as framed, wire-encoded snapshots. Handles
// kSnapshotRequest, kSnapshot and kSnapshotAck.
//
// Under config.snapshot_join the per-op downward dissemination is replaced
// by debounced snapshots: NEs that applied fresh member state mark
// themselves dirty; after kSnapshotFlushQuiet with no further change they
// push one snapshot to their child ring leader (and, when they learned the
// state *from* a snapshot rather than a token round, across their own ring
// if they lead it). Each push is acked and retransmitted. Receivers
// digest-check, decode the blob through the wire codec and import
// monotonically, so a duplicated, reordered or stale snapshot can never
// regress a view; a corrupted one is rejected cleanly and counted. An NE
// admitted to a ring pulls its view the same way (request and serve).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "rgb/messages.hpp"
#include "rgb/types.hpp"
#include "sim/simulator.hpp"

namespace rgb::core {

class NetworkEntity;

class SnapshotTransfer {
 public:
  explicit SnapshotTransfer(NetworkEntity& ne) : ne_(ne) {}
  // Timers hold its address.
  SnapshotTransfer(const SnapshotTransfer&) = delete;
  SnapshotTransfer& operator=(const SnapshotTransfer&) = delete;

  /// Marks the ring (pushed only by its leader) and/or the child edge as
  /// owed a snapshot, and pushes the flush out by another quiet window.
  void schedule_flush(bool to_ring, bool to_child);
  /// Pulls `peer`'s view, unless ours already matches it.
  void request_from(NodeId peer);
  /// Drops the pending flush and every unacked push (the NE left its ring).
  void reset();

  void handle_request(const SnapshotRequestMsg& msg, NodeId from);
  void handle_snapshot(const SnapshotMsg& msg, NodeId from);
  void handle_ack(const SnapshotAckMsg& msg, NodeId from);

 private:
  /// The table as one encoded kSnapshot payload, keyed by its digest.
  struct Encoded {
    net::Payload payload;
    std::uint64_t digest = 0;
    std::uint64_t count = 0;
    std::uint32_t bytes = 0;
  };
  /// The current table as an encoded, shareable kSnapshot payload —
  /// rebuilt only when the table digest moved, so flush fan-outs, request
  /// replies and the ack-driven retx loop all share one O(N) encode (and
  /// one allocation) per table state instead of re-encoding per
  /// destination per timeout.
  const Encoded& encoded();
  void flush();
  /// Flush-edge reliability: one pending push per destination, cleared by
  /// the matching kSnapshotAck and retransmitted (with the then-current
  /// table) until acked or past the notify retx budget.
  struct PendingPush {
    std::uint64_t digest = 0;
    int retx = 0;
    sim::EventId timer{};
  };
  /// Sends the current table to `dest` and arms `pending`'s ack timer.
  void push(NodeId dest, PendingPush& pending);
  void on_push_timeout(NodeId dest);

  NetworkEntity& ne_;
  sim::EventId flush_timer_{};
  bool dirty_ring_ = false;   ///< peers owed a push (leader only)
  bool dirty_child_ = false;  ///< child ring leader owed a push
  std::unordered_map<NodeId, PendingPush> pending_pushes_;
  std::optional<Encoded> encoded_;
};

}  // namespace rgb::core
