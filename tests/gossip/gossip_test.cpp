#include "gossip/gossip_membership.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rgb::gossip {
namespace {

class GossipTest : public rgb::testing::SimNetTest {
 protected:
  std::unique_ptr<GossipSystem> make(int nodes, GossipConfig config = {}) {
    config.nodes = nodes;
    return std::make_unique<GossipSystem>(network_, config,
                                          common::RngStream{11});
  }

  std::uint64_t gossip_messages() const {
    return network_.metrics().sent_of(kPing) + network_.metrics().sent_of(kAck);
  }
};

TEST_F(GossipTest, JoinInfectsAllNodes) {
  auto sys = make(10);
  sys->start();
  sys->join(common::Guid{1}, sys->aps().front());
  run_for_ms(5000);
  EXPECT_TRUE(sys->converged());
  EXPECT_EQ(sys->membership().size(), 1u);
}

TEST_F(GossipTest, DisseminationTakesMultiplePeriods) {
  auto sys = make(20);
  sys->start();
  sys->join(common::Guid{1}, sys->aps().front());
  // After one period only a couple of nodes can know.
  run_for_ms(250);
  int knowers = 0;
  for (const auto ap : sys->aps()) {
    if (sys->node(ap)->members().contains(common::Guid{1})) ++knowers;
  }
  EXPECT_LT(knowers, 20);
  run_for_ms(8000);
  EXPECT_TRUE(sys->converged());
}

TEST_F(GossipTest, IdleProtocolStillBurnsMessages) {
  // The structural contrast with RGB: gossip has a constant background
  // cost even with zero membership changes.
  auto sys = make(10);
  sys->start();
  run_for_ms(2000);
  // 10 nodes, 200ms period, 2s => ~100 pings + acks.
  EXPECT_GT(gossip_messages(), 150u);
}

TEST_F(GossipTest, LifecycleConverges) {
  auto sys = make(8);
  sys->start();
  sys->join(common::Guid{1}, sys->aps()[0]);
  sys->join(common::Guid{2}, sys->aps()[3]);
  run_for_ms(6000);
  sys->handoff(common::Guid{1}, sys->aps()[5]);
  sys->leave(common::Guid{2});
  run_for_ms(6000);
  EXPECT_TRUE(sys->converged());
  const auto view = sys->membership();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0].access_proxy, sys->aps()[5]);
}

TEST_F(GossipTest, CrashedPeerIsDetectedAndItsMembersFailed) {
  GossipConfig config;
  config.period = sim::msec(100);
  config.ack_timeout = sim::msec(50);
  auto sys = make(6, config);
  sys->start();
  sys->join(common::Guid{1}, sys->aps()[1]);
  run_for_ms(4000);
  ASSERT_TRUE(sys->converged());

  network_.crash(sys->aps()[1]);
  run_for_ms(20000);
  // Survivors eventually drop the dead AP and its member.
  for (const auto ap : sys->aps()) {
    if (ap == sys->aps()[1]) continue;
    EXPECT_FALSE(sys->node(ap)->members().contains(common::Guid{1}))
        << "node " << ap.value();
    EXPECT_EQ(sys->node(ap)->alive_peers().size(), 4u);
  }
}

TEST_F(GossipTest, UpdateBudgetScalesWithLogOfGroup) {
  // Indirectly: dissemination still completes in a larger group.
  auto sys = make(40);
  sys->start();
  sys->join(common::Guid{1}, sys->aps()[7]);
  run_for_ms(15000);
  EXPECT_TRUE(sys->converged());
}

TEST_F(GossipTest, ConcurrentUpdatesAllPropagate) {
  auto sys = make(12);
  sys->start();
  for (std::uint64_t g = 1; g <= 10; ++g) {
    sys->join(common::Guid{g}, sys->aps()[g % 12]);
  }
  run_for_ms(10000);
  EXPECT_TRUE(sys->converged());
  EXPECT_EQ(sys->membership().size(), 10u);
}

}  // namespace
}  // namespace rgb::gossip
