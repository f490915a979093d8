#include "flatring/flat_ring.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rgb::flatring {
namespace {

class FlatRingTest : public rgb::testing::SimNetTest {
 protected:
  std::uint64_t token_hops() const {
    return network_.metrics().sent_of(kRingToken);
  }
};

TEST_F(FlatRingTest, BuildsRingWithParkedToken) {
  FlatRingSystem sys{network_, FlatRingConfig{8}};
  EXPECT_EQ(sys.aps().size(), 8u);
  EXPECT_TRUE(sys.node(sys.aps().front())->parked());
}

TEST_F(FlatRingTest, JoinAtParkingNodeDisseminatesInOneCircle) {
  FlatRingSystem sys{network_, FlatRingConfig{6}};
  sys.join(common::Guid{1}, sys.aps().front());  // node 0 holds the token
  run_all();
  EXPECT_TRUE(sys.converged());
  EXPECT_EQ(sys.membership().size(), 1u);
  // The origin applies locally; the op then visits the 5 other nodes and
  // the token re-parks where the entry expires.
  EXPECT_EQ(token_hops(), 5u);
}

TEST_F(FlatRingTest, JoinElsewhereCostsWakePlusCirculation) {
  FlatRingSystem sys{network_, FlatRingConfig{6}};
  sys.join(common::Guid{1}, sys.aps()[3]);
  run_all();
  EXPECT_TRUE(sys.converged());
  // Wake chases from node 3 to the parking node 0 (3 wake hops); the empty
  // token then travels to node 3 (3 hops) and circulates the op (5 hops).
  EXPECT_GE(token_hops(), 6u);
  EXPECT_GT(network_.metrics().sent, 8u);
}

TEST_F(FlatRingTest, TokenReParksAfterQuiescence) {
  FlatRingSystem sys{network_, FlatRingConfig{5}};
  sys.join(common::Guid{1}, sys.aps()[2]);
  run_all();
  int parked = 0;
  for (const auto ap : sys.aps()) {
    if (sys.node(ap)->parked()) ++parked;
  }
  EXPECT_EQ(parked, 1);  // exactly one parking node after quiescence
}

TEST_F(FlatRingTest, MultipleOpsShareCirculation) {
  FlatRingSystem sys{network_, FlatRingConfig{10}};
  for (std::uint64_t g = 1; g <= 5; ++g) {
    sys.join(common::Guid{g}, sys.aps().front());
  }
  run_all();
  EXPECT_TRUE(sys.converged());
  EXPECT_EQ(sys.membership().size(), 5u);
  // The first join unparks the token and departs immediately; the other
  // four ops must wait for it to come back around, then share one
  // circulation — two circles total, not five.
  EXPECT_LE(token_hops(), 2u * 10u);
}

TEST_F(FlatRingTest, LifecycleLeaveFailHandoff) {
  FlatRingSystem sys{network_, FlatRingConfig{5}};
  sys.join(common::Guid{1}, sys.aps()[0]);
  sys.join(common::Guid{2}, sys.aps()[1]);
  sys.join(common::Guid{3}, sys.aps()[2]);
  run_all();
  sys.handoff(common::Guid{1}, sys.aps()[4]);
  sys.leave(common::Guid{2});
  sys.fail(common::Guid{3});
  run_all();
  EXPECT_TRUE(sys.converged());
  const auto view = sys.membership();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0].guid, common::Guid{1});
  EXPECT_EQ(view[0].access_proxy, sys.aps()[4]);
}

TEST_F(FlatRingTest, LargeRingDisseminationLatencyGrowsLinearly) {
  // The §6 argument: one big ring needs O(n) hops per change.
  sim::Time t_small, t_large;
  {
    sim::Simulator s;
    net::Network n{s, common::RngStream{1}};
    FlatRingSystem sys{n, FlatRingConfig{10}};
    sys.join(common::Guid{1}, sys.aps().front());
    s.run();
    t_small = s.now();
  }
  {
    sim::Simulator s;
    net::Network n{s, common::RngStream{1}};
    FlatRingSystem sys{n, FlatRingConfig{100}};
    sys.join(common::Guid{1}, sys.aps().front());
    s.run();
    t_large = s.now();
  }
  EXPECT_GE(t_large, 8 * t_small);  // ~10x ring => ~10x circulation time
}

TEST_F(FlatRingTest, WakeFromEveryPositionEventuallyDelivers) {
  FlatRingSystem sys{network_, FlatRingConfig{7}};
  for (std::size_t i = 0; i < 7; ++i) {
    sys.join(common::Guid{i + 1}, sys.aps()[i]);
    run_all();
  }
  EXPECT_TRUE(sys.converged());
  EXPECT_EQ(sys.membership().size(), 7u);
}

}  // namespace
}  // namespace rgb::flatring
