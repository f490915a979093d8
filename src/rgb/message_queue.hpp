// The self-optimising aggregating message queue of Section 4.2 ("MQ:
// MessageQueue. Message queue which is self-optimized for aggregating some
// successive messages into one for further processing").
//
// One aggregation rule, applied while ops wait for the ring token: the
// queue holds at most one pending op per member, and of that op and an
// arriving op on the same member, the one higher in record_precedes rank
// stays. An arriving op that out-ranks the pending one takes its place,
// keeping only the echo suppression both ops share; any other (a
// retransmitted copy, a stale dissemination of an older change) is
// absorbed. The contributors of both (NEs awaiting a
// Holder-Acknowledgement) ride with the op that stays and are acked when
// its round completes. A retransmitted copy (same uid) is absorbed even
// when aggregation is off.
//
// The rule is apply-equivalent: a table merges ops by the same rank
// (MemberTable::apply imports entry_of(op)), so applying each inserted op
// in order ends at each member's highest-ranked op, which is the op the
// drained batch holds for it. Nothing is cancelled.
//
// Two effects of an applied op reach past the table, and only the op that
// rides has them:
//  * Claims. An AP ends its claim on a member when it applies a handoff,
//    leave or fail of a newer epoch, whichever AP the op names
//    (Attachments::on_departure). The op that stays has the newest epoch
//    of the ops it absorbed, so when it is one of these kinds it ends the
//    claims they would have ended: a chain a -> b -> c rides as the b -> c
//    handoff and still ends a's claim. A join ends no claim, so a
//    departure folded into a later join (a handoff, then a leave or fail,
//    then a rejoin, all before one drain) leaves the claim it ended to the
//    next reaffirmation pass, which runs on the probe tick.
//  * Join latency. The benchmark probe samples a join when a Join op
//    reaches the top ring. A join that a handoff, leave or fail out-ranks
//    in a queue reaches it as that op and is not sampled.
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

  /// Merges `op` into the pending op it meets (a copy of it, or, when
  /// aggregating, the pending op on its member) by the one rule, moving
  /// from `op` when it takes that op's place. Returns false, leaving `op`
  /// as it was, when it meets none.
  bool try_aggregate(MembershipOp& op, const Contributor& contributor);

  bool aggregate_;
  std::deque<Pending> queue_;
  std::uint64_t ops_inserted_ = 0;
  std::uint64_t ops_collapsed_ = 0;
};

}  // namespace rgb::core
