#include "rgb/message_queue.hpp"

#include <gtest/gtest.h>

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

TEST(MessageQueue, JoinThenLeaveCancels) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberLeave, 2, 9, 100, 0, /*claim=*/1));
  EXPECT_TRUE(mq.empty());
  EXPECT_EQ(mq.ops_collapsed(), 1u);
}

TEST(MessageQueue, JoinThenFailCancels) {
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberFail, 2, 9, 100, 0, /*claim=*/1));
  EXPECT_TRUE(mq.empty());
}

TEST(MessageQueue, ReanchoringJoinIsNotCancelledByDeparture) {
  // A reaffirm repair re-anchors an existing attachment epoch (claim_seq <
  // seq), so the epoch is already in tables elsewhere even though the op is
  // locally originated. A following departure must NOT annihilate with it:
  // cancelling the pair would strand the previously disseminated
  // operational record as a permanent zombie.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 5, 9, 100, 0, /*claim=*/3));
  mq.insert(op(OpKind::kMemberFail, 6, 9, 100, 0, /*claim=*/3));
  EXPECT_EQ(mq.size(), 2u);
  EXPECT_EQ(mq.ops_collapsed(), 0u);
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

TEST(MessageQueue, CancelledOpsOrphanTheirContributors) {
  MessageQueue mq{true};
  // A locally originated join (cancellable) annihilated by a notified fail:
  // the fail's contributor is owed an immediate ack.
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberFail, 2, 9, 100, 0, /*claim=*/1),
            Contributor{NodeId{51}, 502});
  EXPECT_TRUE(mq.empty());
  const auto orphans = mq.take_orphaned_acks();
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].notify_id, 502u);
  // Second call returns nothing.
  EXPECT_TRUE(mq.take_orphaned_acks().empty());
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
  // Regression companion: an old leave must not annihilate a newer rejoin.
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

TEST(MessageQueue, DisseminatedJoinCopyIsNotCancelledByLeave) {
  // Regression: a join that arrived via notification (contributor set) is
  // already known elsewhere in the hierarchy; a following leave must
  // propagate rather than annihilate locally.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100), Contributor{NodeId{50}, 501});
  mq.insert(op(OpKind::kMemberLeave, 2, 9, 100, 0, /*claim=*/1));
  ASSERT_EQ(mq.size(), 2u);  // both queued, nothing cancelled
  const auto batch = mq.drain();
  EXPECT_EQ(batch.ops[1].kind, OpKind::kMemberLeave);
}

TEST(MessageQueue, ProvenancedJoinCopyIsNotCancelledByLeave) {
  MessageQueue mq{true};
  MembershipOp join = op(OpKind::kMemberJoin, 1, 9, 100);
  join.from_parent_of = NodeId{7};  // disseminated downwards to this node
  mq.insert(std::move(join));
  mq.insert(op(OpKind::kMemberFail, 2, 9, 100, 0, /*claim=*/1));
  EXPECT_EQ(mq.size(), 2u);
}

TEST(MessageQueue, CollapsedLocalJoinRemainsCancellable) {
  // Local join + local handoff collapse; a leave may still annihilate the
  // result because nothing ever left this node.
  MessageQueue mq{true};
  mq.insert(op(OpKind::kMemberJoin, 1, 9, 100));
  mq.insert(op(OpKind::kMemberHandoff, 2, 9, 200, 100));
  mq.insert(op(OpKind::kMemberLeave, 3, 9, 200, 0, /*claim=*/2));
  EXPECT_TRUE(mq.empty());
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

}  // namespace
}  // namespace rgb::core
