// Mechanics of the One-Round Token Passing Membership algorithm (Figure 3)
// on a single logical ring.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

class SingleRingTest : public RgbSystemTest {};

TEST_F(SingleRingTest, RingWiringFormsCycle) {
  auto& sys = build(1, 5);
  const auto& ring = sys.rings(0).front();
  ASSERT_EQ(ring.size(), 5u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto* ne = sys.entity(ring[i]);
    EXPECT_EQ(ne->next_node(), ring[(i + 1) % ring.size()]);
    EXPECT_EQ(ne->previous_node(), ring[(i + ring.size() - 1) % ring.size()]);
    EXPECT_EQ(ne->leader(), ring.front());
    EXPECT_TRUE(ne->ring_ok());
  }
  EXPECT_TRUE(sys.entity(ring.front())->is_leader());
  EXPECT_TRUE(sys.entity(ring.front())->token_parked_here());
}

TEST_F(SingleRingTest, OneJoinCostsExactlyRingSizeTokenHops) {
  auto& sys = build(1, 5);
  sys.join(common::Guid{1}, sys.aps()[2]);  // non-leader origin
  run_all();
  // r token hops; a 1-tier hierarchy has no notifications.
  EXPECT_EQ(proposal_hops(), 5u);
  EXPECT_TRUE(sys.membership_converged());
}

TEST_F(SingleRingTest, EveryNodeLearnsTheMember) {
  auto& sys = build(1, 4);
  sys.join(common::Guid{9}, sys.aps()[1]);
  run_all();
  for (const auto id : sys.aps()) {
    EXPECT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{9}))
        << "node " << id.value();
  }
}

TEST_F(SingleRingTest, LeaderOriginRoundAlsoOneRound) {
  auto& sys = build(1, 5);
  sys.join(common::Guid{1}, sys.aps()[0]);  // leader is the origin
  run_all();
  EXPECT_EQ(proposal_hops(), 5u);
  EXPECT_EQ(sys.metrics().rounds_completed.value(), 1u);
}

TEST_F(SingleRingTest, BatchOfOpsAtOneNodeSharesOneRound) {
  auto& sys = build(1, 5);
  // Three joins at the same AP before the token is requested: the MQ
  // aggregates them into one token round.
  sys.join(common::Guid{1}, sys.aps()[3]);
  sys.join(common::Guid{2}, sys.aps()[3]);
  sys.join(common::Guid{3}, sys.aps()[3]);
  run_all();
  EXPECT_EQ(sys.metrics().rounds_completed.value(), 1u);
  EXPECT_EQ(proposal_hops(), 5u);
  EXPECT_EQ(sys.membership().size(), 3u);
}

TEST_F(SingleRingTest, ConcurrentOriginsSerializeViaLeaderGrants) {
  auto& sys = build(1, 5);
  sys.join(common::Guid{1}, sys.aps()[1]);
  sys.join(common::Guid{2}, sys.aps()[3]);
  run_all();
  // Two distinct origins => two rounds, serialized by the leader's token.
  EXPECT_EQ(sys.metrics().rounds_completed.value(), 2u);
  EXPECT_EQ(proposal_hops(), 10u);
  EXPECT_TRUE(sys.membership_converged());
}

TEST_F(SingleRingTest, JoinThenLeaveConvergesToEmpty) {
  auto& sys = build(1, 5);
  sys.join(common::Guid{1}, sys.aps()[2]);
  run_all();
  sys.leave(common::Guid{1});
  run_all();
  EXPECT_TRUE(sys.membership().empty());
  EXPECT_TRUE(sys.membership_converged());
}

TEST_F(SingleRingTest, JoinLeaveBeforeRoundCancelsEntirely) {
  auto& sys = build(1, 5);
  // Both ops hit the same MQ in the same instant; aggregation cancels them
  // before any token is requested... except the join may already have
  // triggered a token request. Either way the final view is empty.
  sys.join(common::Guid{1}, sys.aps()[2]);
  sys.leave(common::Guid{1});
  run_all();
  EXPECT_TRUE(sys.membership().empty());
  EXPECT_TRUE(sys.membership_converged());
}

TEST_F(SingleRingTest, HandoffWithinRingUpdatesLocalLists) {
  auto& sys = build(1, 5);
  const auto ap_a = sys.aps()[1];
  const auto ap_b = sys.aps()[2];
  sys.join(common::Guid{1}, ap_a);
  run_all();
  EXPECT_EQ(sys.entity(ap_a)->local_members().size(), 1u);

  sys.handoff(common::Guid{1}, ap_b);
  run_all();
  EXPECT_EQ(sys.entity(ap_a)->local_members().size(), 0u);
  ASSERT_EQ(sys.entity(ap_b)->local_members().size(), 1u);
  EXPECT_EQ(sys.entity(ap_b)->local_members()[0].guid, common::Guid{1});
}

TEST_F(SingleRingTest, NeighborMembersTrackAdjacentAps) {
  auto& sys = build(1, 5);
  const auto& ring = sys.rings(0).front();
  sys.join(common::Guid{1}, ring[1]);
  sys.join(common::Guid{2}, ring[3]);
  run_all();
  // Node 2's neighbours are nodes 1 and 3: both members are neighbours.
  const auto neigh = sys.entity(ring[2])->neighbor_members();
  ASSERT_EQ(neigh.size(), 2u);
  // Node 0's neighbours are 4 and 1: only member 1 is a neighbour.
  const auto neigh0 = sys.entity(ring[0])->neighbor_members();
  ASSERT_EQ(neigh0.size(), 1u);
  EXPECT_EQ(neigh0[0].guid, common::Guid{1});
}

TEST_F(SingleRingTest, SingletonRingConvergesLocally) {
  auto& sys = build(1, 1);
  sys.join(common::Guid{1}, sys.aps()[0]);
  run_all();
  EXPECT_TRUE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{1}));
  EXPECT_EQ(proposal_hops(), 0u);  // no peers to inform
}

TEST_F(SingleRingTest, TwoNodeRing) {
  auto& sys = build(1, 2);
  sys.join(common::Guid{1}, sys.aps()[1]);
  run_all();
  EXPECT_EQ(proposal_hops(), 2u);
  EXPECT_TRUE(sys.membership_converged());
}

TEST_F(SingleRingTest, RingsConsistentAfterTraffic) {
  auto& sys = build(1, 6);
  for (int i = 0; i < 10; ++i) {
    sys.join(common::Guid{static_cast<std::uint64_t>(i + 1)},
             sys.aps()[static_cast<std::size_t>(i) % 6]);
  }
  run_all();
  EXPECT_EQ(sys.ring_faults(), std::vector<std::string>{});
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.membership().size(), 10u);
}

TEST_F(SingleRingTest, MhAckArrivesAfterRequest) {
  auto& sys = build(1, 3);
  MobileHost mh{NodeId{900001}, common::Guid{77}, common::GroupId{1},
                network_};
  mh.join_via(sys.aps()[0]);
  run_all();
  EXPECT_EQ(mh.acks_received(), 1u);
  EXPECT_EQ(mh.status(), proto::MemberStatus::kOperational);
  EXPECT_TRUE(sys.entity(sys.aps()[0])->ring_members().contains(common::Guid{77}));
}

TEST_F(SingleRingTest, MobileHostLifecycle) {
  auto& sys = build(1, 3);
  MobileHost mh{NodeId{900001}, common::Guid{77}, common::GroupId{1},
                network_};
  mh.join_via(sys.aps()[0]);
  run_all();
  mh.handoff_to(sys.aps()[1]);
  run_all();
  EXPECT_EQ(mh.current_ap(), sys.aps()[1]);
  EXPECT_EQ(sys.entity(sys.aps()[1])->local_members().size(), 1u);
  EXPECT_EQ(sys.entity(sys.aps()[0])->local_members().size(), 0u);
  mh.leave();
  run_all();
  EXPECT_EQ(mh.status(), proto::MemberStatus::kDisconnected);
  EXPECT_TRUE(sys.membership().empty());
}

TEST_F(SingleRingTest, LuidChangesPerAttachment) {
  auto& sys = build(1, 3);
  MobileHost mh{NodeId{900001}, common::Guid{77}, common::GroupId{1},
                network_};
  mh.join_via(sys.aps()[0]);
  const auto luid1 = mh.luid();
  mh.handoff_to(sys.aps()[1]);
  const auto luid2 = mh.luid();
  EXPECT_NE(luid1, luid2);  // care-of address changes with the AP
  EXPECT_EQ(mh.guid(), common::Guid{77});  // home identity does not
}

}  // namespace
}  // namespace rgb::core
