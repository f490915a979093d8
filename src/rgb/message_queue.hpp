// The self-optimising aggregating message queue of Section 4.2 ("MQ:
// MessageQueue. Message queue which is self-optimized for aggregating some
// successive messages into one for further processing").
//
// Aggregation rules (applied while ops wait for the ring token):
//   * duplicate ops (same uid) are dropped;
//   * an op that does not out-rank the newest pending op on its member in
//     record_precedes order is absorbed by it (stale);
//   * Join(g) followed by Leave/Fail(g) collapses to the departure;
//   * Handoff(g, a->b) followed by Handoff(g, b->c) collapses to
//     Handoff(g, a->c);
//   * Join(g) followed by Handoff(g, ->b) collapses to Join(g at b).
// Every rule is apply-equivalent: applying the drained batch to a table
// leaves the same records as applying each inserted op in order. An
// absorbed op's contributors (NEs awaiting a Holder-Acknowledgement) move
// to the op that absorbed it and are acked when that op's round completes.
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

  /// Lifetime counters for the aggregation ablation bench.
  [[nodiscard]] std::uint64_t ops_inserted() const { return ops_inserted_; }
  [[nodiscard]] std::uint64_t ops_collapsed() const { return ops_collapsed_; }

 private:
  struct Pending {
    MembershipOp op;
    std::vector<Contributor> contributors;
  };

  /// Attempts to merge `op` into an existing pending entry. Returns true if
  /// the op was absorbed.
  bool try_aggregate(const MembershipOp& op,
                     const std::vector<Contributor>& contributors);

  bool aggregate_;
  std::deque<Pending> queue_;
  std::uint64_t ops_inserted_ = 0;
  std::uint64_t ops_collapsed_ = 0;
};

}  // namespace rgb::core
