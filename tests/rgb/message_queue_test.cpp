#include "rgb/message_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "rgb/member_table.hpp"

namespace rgb::core {
namespace {

MembershipOp op(OpKind kind, std::uint64_t seq, std::uint64_t guid,
                std::uint64_t ap, std::uint64_t old_ap = 0,
                std::uint64_t claim = 0) {
  MembershipOp o;
  o.kind = kind;
  o.seq = seq;
  o.uid = seq;  // tests reuse the seq as the unique id
  // Epoch invariant unless overridden: a join/handoff starts its own
  // attachment epoch (claim_seq == seq); departures name the epoch they end
  // via the explicit `claim` argument.
  o.claim_seq = claim != 0 ? claim
                : (kind == OpKind::kMemberJoin || kind == OpKind::kMemberHandoff)
                    ? seq
                    : 0;
  o.member = MemberRecord{Guid{guid}, NodeId{ap},
                          proto::MemberStatus::kOperational};
  if (old_ap != 0) o.old_ap = NodeId{old_ap};
  return o;
}

TEST(MessageQueue, StartsEmpty) {
  MessageQueue mq;
  EXPECT_TRUE(mq.empty());
  EXPECT_EQ(mq.size(), 0u);
  EXPECT_TRUE(mq.drain().empty());
}

TEST(MessageQueue, DrainReturnsAllWhenAggregating) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 1, 100));
  mq.insert(op(OpKind::kMemberJoin, 2, 2, 100));
  mq.insert(op(OpKind::kMemberJoin, 3, 3, 100));
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops.size(), 3u);
  EXPECT_TRUE(mq.empty());
}

TEST(MessageQueue, DrainReturnsOneWhenNotAggregating) {
  MessageQueue mq{false};
  mq.insert(op(OpKind::kMemberJoin, 1, 1, 100));
  mq.insert(op(OpKind::kMemberJoin, 2, 2, 100));
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops.size(), 1u);
  EXPECT_EQ(batch.ops[0].seq, 1u);
  EXPECT_EQ(mq.size(), 1u);
}

TEST(MessageQueue, DuplicateSeqDropped) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 7, 1, 100));
  mq.insert(op(OpKind::kMemberJoin, 7, 1, 100));
  EXPECT_EQ(mq.size(), 1u);
  EXPECT_EQ(mq.ops_collapsed(), 1u);
}

/// Drains `mq` and expects exactly one op: the departure of guid 9 with
/// `kind`, `seq` and `claim`.
void expect_one_departure(MessageQueue& mq, OpKind kind, std::uint64_t seq,
                          std::uint64_t claim) {
  ASSERT_EQ(mq.size(), 1u);
  const auto batch = mq.drain();
  ASSERT_EQ(batch.ops.size(), 1u);
  EXPECT_EQ(batch.ops[0].kind, kind);
  EXPECT_EQ(batch.ops[0].member.guid, Guid{9});
  EXPECT_EQ(batch.ops[0].seq, seq);
  EXPECT_EQ(batch.ops[0].uid, seq);
  EXPECT_EQ(batch.ops[0].claim_seq, claim);
}

TEST(MessageQueue, JoinThenLeaveCollapsesToTheLeave) {
  // The leave out-ranks the join, so it alone leaves every table where the
  // pair would: nothing is cancelled, and the departure still propagates.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberLeave, 2, 9, 100, 0, /*claim=*/1));
  EXPECT_EQ(mq.ops_collapsed(), 1u);
  expect_one_departure(mq, OpKind::kMemberLeave, 2, /*claim=*/1);
}

TEST(MessageQueue, JoinThenFailCollapsesToTheFail) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberFail, 2, 9, 100, 0, /*claim=*/1));
  expect_one_departure(mq, OpKind::kMemberFail, 2, /*claim=*/1);
}

TEST(MessageQueue, ReanchoringJoinCollapsesIntoDeparture) {
  // A reaffirm repair re-anchors an existing attachment epoch (claim_seq <
  // seq), which other tables already hold. The departure that follows must
  // still reach them to end that epoch; it rides alone.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 5, 9, 100, 0, /*claim=*/3));
  mq.insert(op(OpKind::kMemberFail, 6, 9, 100, 0, /*claim=*/3));
  EXPECT_EQ(mq.ops_collapsed(), 1u);
  expect_one_departure(mq, OpKind::kMemberFail, 6, /*claim=*/3);
}

TEST(MessageQueue, HandoffChainCollapses) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberHandoff, 1, 9, 200, 100));  // 100 -> 200
  mq.insert(op(OpKind::kMemberHandoff, 2, 9, 300, 200));  // 200 -> 300
  ASSERT_EQ(mq.size(), 1u);
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops[0].kind, OpKind::kMemberHandoff);
  EXPECT_EQ(batch.ops[0].member.access_proxy, NodeId{300});
  EXPECT_EQ(batch.ops[0].old_ap, NodeId{100});  // net movement 100 -> 300
  EXPECT_EQ(batch.ops[0].seq, 2u);              // newest seq wins
}

TEST(MessageQueue, NonAdjacentHandoffDoesNotCollapse) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberHandoff, 1, 9, 200, 100));
  mq.insert(op(OpKind::kMemberHandoff, 2, 9, 400, 300));  // gap: not b->c
  EXPECT_EQ(mq.size(), 2u);
}

TEST(MessageQueue, JoinThenHandoffBecomesJoinAtNewAp) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberHandoff, 2, 9, 300, 100));
  ASSERT_EQ(mq.size(), 1u);
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops[0].kind, OpKind::kMemberJoin);
  EXPECT_EQ(batch.ops[0].member.access_proxy, NodeId{300});
}

TEST(MessageQueue, LeaveThenJoinStaysOrdered) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberLeave, 1, 9, 100));
  mq.insert(op(OpKind::kMemberJoin, 2, 9, 200));
  ASSERT_EQ(mq.size(), 2u);
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops[0].kind, OpKind::kMemberLeave);
  EXPECT_EQ(batch.ops[1].kind, OpKind::kMemberJoin);
}

TEST(MessageQueue, NoAggregationAcrossDifferentMembers) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 1, 100));
  mq.insert(op(OpKind::kMemberLeave, 2, 2, 100));
  EXPECT_EQ(mq.size(), 2u);
}

TEST(MessageQueue, AggregationDisabledKeepsEverything) {
  MessageQueue mq{false};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberLeave, 2, 9, 100));
  EXPECT_EQ(mq.size(), 2u);
  EXPECT_EQ(mq.ops_collapsed(), 0u);
}

TEST(MessageQueue, ContributorsSurviveCollapse) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberHandoff, 1, 9, 200, 100),
            Contributor{NodeId{50}, 501});
  mq.insert(op(OpKind::kMemberHandoff, 2, 9, 300, 200),
            Contributor{NodeId{51}, 502});
  const auto batch = mq.drain();
  ASSERT_EQ(batch.contributors.size(), 2u);
  EXPECT_EQ(batch.contributors[0].ne, NodeId{50});
  EXPECT_EQ(batch.contributors[1].ne, NodeId{51});
}

TEST(MessageQueue, CollapsedDepartureCarriesBothContributors) {
  // A notified join collapsed into a notified fail: the departure's round
  // acks both notifications when it completes.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100), Contributor{NodeId{50}, 501});
  mq.insert(op(OpKind::kMemberFail, 2, 9, 100, 0, /*claim=*/1),
            Contributor{NodeId{51}, 502});
  const auto batch = mq.drain();
  ASSERT_EQ(batch.ops.size(), 1u);
  EXPECT_EQ(batch.ops[0].kind, OpKind::kMemberFail);
  EXPECT_EQ(batch.contributors,
            (std::vector<Contributor>{{NodeId{50}, 501}, {NodeId{51}, 502}}));
}

TEST(MessageQueue, DuplicateContributorNotRepeated) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100), Contributor{NodeId{50}, 501});
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100), Contributor{NodeId{50}, 501});
  const auto batch = mq.drain();
  EXPECT_EQ(batch.contributors.size(), 1u);
}

TEST(MessageQueue, CountsInsertedOps) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 1, 100));
  mq.insert(op(OpKind::kMemberJoin, 2, 2, 100));
  EXPECT_EQ(mq.ops_inserted(), 2u);
}

TEST(MessageQueue, StaleOpIsAbsorbedNotChained) {
  // Regression: a disseminated copy of an OLDER handoff racing a newer
  // pending one must not chain "backwards" and rewrite the new destination.
  MessageQueue mq{true};
  // Newer local move 19 -> 13 is pending...
  mq.insert(op(OpKind::kMemberHandoff, 9, 7, 13, 19));
  // ...when the stale dissemination of the older move 13 -> 19 arrives.
  mq.insert(op(OpKind::kMemberHandoff, 5, 7, 19, 13));
  ASSERT_EQ(mq.size(), 1u);
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops[0].member.access_proxy, NodeId{13});
  EXPECT_EQ(batch.ops[0].seq, 9u);
}

TEST(MessageQueue, StaleLeaveCannotCancelNewerJoin) {
  // Regression companion: an old leave must not displace a newer rejoin.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 9, 7, 100));
  mq.insert(op(OpKind::kMemberLeave, 5, 7, 100));
  ASSERT_EQ(mq.size(), 1u);
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops[0].kind, OpKind::kMemberJoin);
}

TEST(MessageQueue, StaleAbsorptionStillOwesContributorAck) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberHandoff, 9, 7, 13, 19));
  mq.insert(op(OpKind::kMemberHandoff, 5, 7, 19, 13),
            Contributor{NodeId{50}, 501});
  const auto batch = mq.drain();
  ASSERT_EQ(batch.contributors.size(), 1u);
  EXPECT_EQ(batch.contributors[0].notify_id, 501u);
}

TEST(MessageQueue, CollapseClearsProvenanceWhenItDiffers) {
  // Regression: merging a local op into one that arrived from the parent
  // must not inherit the "don't echo up" suppression.
  MessageQueue mq{true};
  MembershipOp downward = op(OpKind::kMemberHandoff, 5, 7, 13, 19);
  downward.from_parent_of = NodeId{13};
  mq.insert(std::move(downward));
  MembershipOp local = op(OpKind::kMemberHandoff, 9, 7, 20, 13);
  mq.insert(std::move(local));  // chains: 19->13 then 13->20
  const auto batch = mq.drain();
  ASSERT_EQ(batch.ops.size(), 1u);
  EXPECT_EQ(batch.ops[0].member.access_proxy, NodeId{20});
  EXPECT_FALSE(batch.ops[0].from_parent_of.valid());  // suppression cleared
  EXPECT_FALSE(batch.ops[0].from_child_of.valid());
}

TEST(MessageQueue, CollapseKeepsSharedProvenance) {
  MessageQueue mq{true};
  MembershipOp first = op(OpKind::kMemberHandoff, 5, 7, 13, 19);
  first.from_parent_of = NodeId{13};
  MembershipOp second = op(OpKind::kMemberHandoff, 9, 7, 20, 13);
  second.from_parent_of = NodeId{13};  // both came down from the parent
  mq.insert(std::move(first));
  mq.insert(std::move(second));
  const auto batch = mq.drain();
  ASSERT_EQ(batch.ops.size(), 1u);
  EXPECT_EQ(batch.ops[0].from_parent_of, NodeId{13});  // still suppressed
}

TEST(MessageQueue, DisseminatedJoinCopyCollapsesIntoLeave) {
  // A join that arrived via notification (contributor set) is already known
  // elsewhere in the hierarchy; the leave that follows carries on in its
  // place and still owes the join's contributor its ack.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100), Contributor{NodeId{50}, 501});
  mq.insert(op(OpKind::kMemberLeave, 2, 9, 100, 0, /*claim=*/1));
  ASSERT_EQ(mq.size(), 1u);
  const auto batch = mq.drain();
  ASSERT_EQ(batch.ops.size(), 1u);
  EXPECT_EQ(batch.ops[0].kind, OpKind::kMemberLeave);
  EXPECT_EQ(batch.contributors,
            (std::vector<Contributor>{{NodeId{50}, 501}}));
}

TEST(MessageQueue, ProvenancedJoinCopyCollapsesIntoFail) {
  // The join came down from the parent, the fail is local: the departure
  // must propagate everywhere, so the echo suppression is cleared.
  MessageQueue mq{true};
  MembershipOp join = op(OpKind::kMemberJoin, 1, 9, 100);
  join.from_parent_of = NodeId{7};  // disseminated downwards to this node
  mq.insert(std::move(join));
  mq.insert(op(OpKind::kMemberFail, 2, 9, 100, 0, /*claim=*/1));
  ASSERT_EQ(mq.size(), 1u);
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops[0].kind, OpKind::kMemberFail);
  EXPECT_FALSE(batch.ops[0].from_parent_of.valid());
  EXPECT_FALSE(batch.ops[0].from_child_of.valid());
}

TEST(MessageQueue, CollapsedLocalJoinCollapsesIntoLeave) {
  // Local join + local handoff collapse to a join at 200; the leave of
  // that epoch then collapses the result into the leave alone.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberHandoff, 2, 9, 200, 100));
  mq.insert(op(OpKind::kMemberLeave, 3, 9, 200, 0, /*claim=*/2));
  expect_one_departure(mq, OpKind::kMemberLeave, 3, /*claim=*/2);
}

TEST(MessageQueue, DrainPreservesFifoOrder) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 3, 1, 100));
  mq.insert(op(OpKind::kMemberJoin, 1, 2, 100));
  mq.insert(op(OpKind::kMemberJoin, 2, 3, 100));
  const auto batch = mq.drain();
  ASSERT_EQ(batch.ops.size(), 3u);
  EXPECT_EQ(batch.ops[0].member.guid, Guid{1});
  EXPECT_EQ(batch.ops[1].member.guid, Guid{2});
  EXPECT_EQ(batch.ops[2].member.guid, Guid{3});
}

// --- op algebra: aggregation is apply-equivalent ----------------------------

/// One member's running attachment while a sequence of ops is generated:
/// the AP and epoch it is attached under now, and the ones before.
struct Attachment {
  std::uint64_t ap = 0;
  std::uint64_t epoch = 0;  ///< claim of the current attachment (0: none)
  std::uint64_t prev_ap = 0;
  std::uint64_t prev_epoch = 0;
};

/// The op templates, each relative to the running attachment.
enum class Step {
  kJoinAtA,    ///< join at AP a: a new epoch
  kJoinAtB,    ///< join at AP b: a new epoch
  kHandoff,    ///< handoff to the other AP: a new epoch
  kLeave,      ///< leave ending the current epoch
  kFail,       ///< fail ending the current epoch
  kReanchor,   ///< join re-asserting the current epoch with a fresh seq
  kStaleFail,  ///< detector fail naming the previous epoch
  kDuplicate,  ///< the previous op delivered again (same uid)
};
constexpr int kSteps = 8;
constexpr std::uint64_t kApA = 100;
constexpr std::uint64_t kApB = 200;
constexpr std::uint64_t kGuid = 9;

MembershipOp member_op(OpKind kind, std::uint64_t seq, std::uint64_t claim,
                       std::uint64_t ap) {
  MembershipOp o;
  o.kind = kind;
  o.seq = seq;
  o.uid = seq;
  o.claim_seq = claim;
  o.member = MemberRecord{Guid{kGuid}, NodeId{ap},
                          proto::MemberStatus::kOperational};
  return o;
}

/// Turns step codes into ops, drawing fresh seqs from `next_seq`. A
/// duplicate with no op before it in the sequence adds nothing.
std::vector<MembershipOp> ops_for(const std::vector<int>& steps,
                                  Attachment at, std::uint64_t next_seq) {
  std::vector<MembershipOp> ops;
  for (const int code : steps) {
    const std::uint64_t seq = next_seq++;
    const Step step = static_cast<Step>(code);
    switch (step) {
      case Step::kJoinAtA:
      case Step::kJoinAtB:
      case Step::kHandoff: {
        const bool handoff = step == Step::kHandoff;
        const std::uint64_t ap = handoff ? (at.ap == kApA ? kApB : kApA)
                                 : step == Step::kJoinAtA ? kApA
                                                          : kApB;
        MembershipOp o = member_op(
            handoff ? OpKind::kMemberHandoff : OpKind::kMemberJoin, seq, seq,
            ap);
        if (handoff) o.old_ap = NodeId{at.ap};
        ops.push_back(o);
        at = Attachment{ap, seq, at.ap, at.epoch};
        break;
      }
      case Step::kLeave:
        ops.push_back(member_op(OpKind::kMemberLeave, seq, at.epoch, at.ap));
        break;
      case Step::kFail:
        ops.push_back(member_op(OpKind::kMemberFail, seq, at.epoch, at.ap));
        break;
      case Step::kReanchor:
        ops.push_back(member_op(OpKind::kMemberJoin, seq, at.epoch, at.ap));
        break;
      case Step::kStaleFail:
        ops.push_back(
            member_op(OpKind::kMemberFail, seq, at.prev_epoch, at.prev_ap));
        break;
      case Step::kDuplicate:
        if (!ops.empty()) ops.push_back(ops.back());
        break;
    }
  }
  return ops;
}

/// A record the member may already hold when the sequence starts: the ops
/// that put it in the table, and the attachment they leave running.
struct StartRecord {
  const char* name;
  std::vector<MembershipOp> ops;
  Attachment at;
};

std::string describe(const std::vector<MembershipOp>& ops) {
  std::ostringstream out;
  for (const MembershipOp& o : ops) {
    out << " " << static_cast<int>(o.kind) << "(seq " << o.seq << ", claim "
        << o.claim_seq << ", ap " << o.member.access_proxy << ")";
  }
  return out.str();
}

std::string describe(const std::optional<TableEntry>& e) {
  if (!e) return "none";
  std::ostringstream out;
  out << "status " << static_cast<int>(e->record.status) << " ap "
      << e->record.access_proxy << " seq " << e->last_seq << " claim "
      << e->claim_seq;
  return out.str();
}

TEST(MessageQueueAlgebra, AggregationThenApplyEqualsApplyingEachOp) {
  // Every sequence of 1-4 ops on one (gid, guid), drawn from the eight
  // templates, from each of four starting records: applying the drained
  // aggregated batch must leave the record that applying the inserted ops
  // one by one leaves. The queue never sees the table, so any rule that
  // drops an op the table would have applied (a join and departure
  // cancelling out, say) shows here as a differing record.
  const std::vector<StartRecord> starts = {
      {"none", {}, Attachment{kApA, 0, kApA, 0}},
      {"operational",
       {member_op(OpKind::kMemberJoin, 1, 1, kApA)},
       Attachment{kApA, 1, kApA, 0}},
      {"disconnected",
       {member_op(OpKind::kMemberJoin, 1, 1, kApA),
        member_op(OpKind::kMemberLeave, 2, 1, kApA)},
       Attachment{kApA, 1, kApA, 0}},
      {"failed",
       {member_op(OpKind::kMemberJoin, 1, 1, kApA),
        member_op(OpKind::kMemberFail, 2, 1, kApA)},
       Attachment{kApA, 1, kApA, 0}},
  };
  std::size_t cases = 0;
  std::array<std::size_t, 4> mismatches{};
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const StartRecord& start = starts[s];
    MemberTable base;
    for (const MembershipOp& o : start.ops) base.apply(o);
    for (int len = 1; len <= 4; ++len) {
      int total = 1;
      for (int i = 0; i < len; ++i) total *= kSteps;
      for (int code = 0; code < total; ++code) {
        std::vector<int> steps;
        for (int i = 0, c = code; i < len; ++i, c /= kSteps) {
          steps.push_back(c % kSteps);
        }
        const std::vector<MembershipOp> ops =
            ops_for(steps, start.at, /*next_seq=*/3);
        ++cases;

        MemberTable in_order = base;
        MessageQueue mq{true};
        for (const MembershipOp& o : ops) {
          in_order.apply(o);
          mq.insert(o);
        }
        const MessageQueue::Batch batch = mq.drain();
        EXPECT_TRUE(mq.empty());
        MemberTable aggregated = base;
        for (const MembershipOp& o : batch.ops) aggregated.apply(o);

        const auto want = in_order.lookup(Guid{kGuid});
        const auto got = aggregated.lookup(Guid{kGuid});
        if (got != want && ++mismatches[s] <= 3) {
          ADD_FAILURE() << "start " << start.name << ", ops" << describe(ops)
                        << ", batch" << describe(batch.ops) << ": in order "
                        << describe(want) << ", aggregated " << describe(got);
        }
      }
    }
  }
  EXPECT_EQ(cases, 4u * (8u + 64u + 512u + 4096u));
  EXPECT_EQ(mismatches, (std::array<std::size_t, 4>{}))
      << "mismatches from none / operational / disconnected / failed: "
      << mismatches[0] << " / " << mismatches[1] << " / " << mismatches[2]
      << " / " << mismatches[3];
}

}  // namespace
}  // namespace rgb::core
