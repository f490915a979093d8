// The Membership-Query algorithm (paper Section 4.4).
//
// A QueryClient contacts the ring leaders designated by a QueryPlan (TMS:
// the topmost leader; IMS: the intermediate-tier leaders; BMS: every
// bottommost AP-ring leader), unions the replies and reports cost metrics
// (messages and latency), which is exactly the trade-off the paper
// discusses: TMS queries are cheap but maintenance is expensive; BMS the
// reverse. Each reply arrives guid-sorted (MemberTable::snapshot), so the
// union is a sorted merge (MemberUnion), the same rule the systems'
// membership() applies to their query targets' views.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "proto/process.hpp"
#include "rgb/messages.hpp"
#include "rgb/types.hpp"

namespace rgb::core {

/// The union of a query's replies, added in arrival order. On a guid that
/// several replies hold, the earliest reply's record is kept, whatever its
/// status; take() then keeps the Operational records.
class MemberUnion {
 public:
  /// Merges `view` in. A guid-ascending view without repeats (a snapshot)
  /// is merged as it is; any other is first stable-sorted by guid, keeping
  /// each guid's first record.
  void add(std::span<const MemberRecord> view);
  /// The union's Operational records, guid-sorted; leaves the union empty.
  [[nodiscard]] std::vector<MemberRecord> take();

 private:
  std::vector<MemberRecord> records_;  ///< guid-ascending, one per guid
  std::vector<MemberRecord> merged_;   ///< the next merge's output
};

class QueryClient : public proto::Process {
 public:
  struct Result {
    std::vector<MemberRecord> members;
    sim::Duration latency = 0;      ///< issue -> last (or timeout) reply
    std::uint64_t messages = 0;     ///< requests sent + replies received
    std::size_t replies = 0;
    std::size_t targets = 0;
    bool complete = false;          ///< all targets replied before timeout
  };

  QueryClient(NodeId id, net::Network& network);

  /// Issues one query per plan target; `on_done` fires when all replies
  /// arrived or `timeout` elapsed. One outstanding query at a time per
  /// client. Group-less: responders answer their merged cross-group view,
  /// deduplicated by guid (the pre-v4 semantics).
  void issue(const QueryPlan& plan, sim::Duration timeout,
             std::function<void(Result)> on_done);

  /// Group-scoped membership query (multi-group serving): the same
  /// fan-out, but every responder answers from group `gid`'s table alone,
  /// so the union is that one group's membership.
  void issue_group(const QueryPlan& plan, GroupId gid, sim::Duration timeout,
                   std::function<void(Result)> on_done);

  void deliver(const net::Envelope& env) override;

 private:
  void finish(bool complete);

  std::uint64_t next_query_id_ = 1;
  std::uint64_t active_query_ = 0;
  sim::Time issued_at_ = 0;
  std::size_t expected_replies_ = 0;
  Result pending_result_;
  MemberUnion collected_;
  std::function<void(Result)> on_done_;
  sim::EventId timeout_timer_{};
};

}  // namespace rgb::core
