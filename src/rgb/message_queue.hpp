// The self-optimising aggregating message queue of Section 4.2 ("MQ:
// MessageQueue. Message queue which is self-optimized for aggregating some
// successive messages into one for further processing").
//
// Aggregation rules (applied while ops wait for the ring token):
//   * duplicate ops (same seq) are dropped;
//   * Join(g) followed by Leave/Fail(g) cancels out entirely — the change
//     never needs to leave this node;
//   * Handoff(g, a->b) followed by Handoff(g, b->c) collapses to
//     Handoff(g, a->c);
//   * Join(g) followed by Handoff(g, ->b) collapses to Join(g at b).
// Contributors (NEs awaiting a Holder-Acknowledgement) survive collapsing:
// if their op was cancelled the ack is owed immediately ("orphaned acks").
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "rgb/types.hpp"

namespace rgb::core {

/// An NE that contributed ops and expects a Holder-Acknowledgement.
struct Contributor {
  NodeId ne;
  std::uint64_t notify_id = 0;
  friend bool operator==(const Contributor&, const Contributor&) = default;
};

class MessageQueue {
 public:
  explicit MessageQueue(bool aggregate = true) : aggregate_(aggregate) {}

  /// Enqueues `op`. `contributor` identifies the NE to ack after the op is
  /// disseminated (invalid NodeId for locally generated / MH-originated
  /// ops).
  void insert(MembershipOp op, Contributor contributor = {});

  /// Enqueues a correlated batch of locally originated ops (a stability
  /// cut's NE-Failure + stranded Member-Failure set, a batched silent-
  /// member flush): per-op aggregation rules still apply, the queue just
  /// absorbs everything in one call so the caller can kick the round
  /// engine once for the whole batch.
  void insert_batch(std::vector<MembershipOp> ops);

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

  struct Batch {
    std::vector<MembershipOp> ops;
    std::vector<Contributor> contributors;
    [[nodiscard]] bool empty() const { return ops.empty(); }
  };

  /// Removes and returns the next batch to ride a token round: everything
  /// when aggregating, exactly one op otherwise.
  Batch drain();

  /// Contributors whose ops were cancelled by aggregation since the last
  /// call; they are owed an immediate ack.
  std::vector<Contributor> take_orphaned_acks();
  [[nodiscard]] bool has_orphaned_acks() const {
    return !orphaned_acks_.empty();
  }

  [[nodiscard]] bool aggregation_enabled() const { return aggregate_; }

  /// Lifetime counters for the aggregation ablation bench.
  [[nodiscard]] std::uint64_t ops_inserted() const { return ops_inserted_; }
  [[nodiscard]] std::uint64_t ops_collapsed() const { return ops_collapsed_; }

 private:
  struct Pending {
    MembershipOp op;
    std::vector<Contributor> contributors;
    /// True when the op originated at this node and has never been
    /// disseminated anywhere (no provenance, no contributor). Only such
    /// joins may be annihilated by a following leave/fail: a disseminated
    /// copy is already known elsewhere, so its cancellation would erase the
    /// leave's observable effect globally.
    bool local_origin = false;
  };

  /// Attempts to merge `op` into an existing pending entry. Returns true if
  /// the op was absorbed (possibly cancelling the entry).
  bool try_aggregate(const MembershipOp& op,
                     const std::vector<Contributor>& contributors);

  bool aggregate_;
  std::deque<Pending> queue_;
  std::vector<Contributor> orphaned_acks_;
  std::uint64_t ops_inserted_ = 0;
  std::uint64_t ops_collapsed_ = 0;
};

}  // namespace rgb::core
