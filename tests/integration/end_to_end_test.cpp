// Full-stack scenarios: churn + mobility over the 4-tier hierarchy with
// queries and faults, plus cross-protocol convergence on identical
// workloads.
#include <gtest/gtest.h>

#include <optional>

#include "flatring/flat_ring.hpp"
#include "gossip/gossip_membership.hpp"
#include "test_util.hpp"
#include "tree/tree_membership.hpp"
#include "workload/churn.hpp"
#include "workload/mobility.hpp"

namespace rgb {
namespace {

using testing::SimNetTest;

TEST(EndToEnd, ConferenceScenarioConverges) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{1234}};
  core::RgbConfig config;
  core::RgbSystem sys{network, config, core::HierarchyLayout{3, 3}};

  workload::ChurnConfig churn_config;
  churn_config.initial_members = 30;
  churn_config.join_rate = 3.0;
  churn_config.leave_rate = 1.5;
  churn_config.handoff_rate = 6.0;
  churn_config.fail_rate = 0.5;
  churn_config.duration = sim::sec(10);
  workload::ChurnWorkload churn{simulator, sys, sys.aps(), churn_config};
  churn.start();

  simulator.run();
  EXPECT_GT(churn.stats().total(), 50u);
  EXPECT_EQ(sys.membership(), churn.expected_membership());
  EXPECT_EQ(sys.ring_faults(), std::vector<std::string>{});
  EXPECT_TRUE(sys.membership_converged());
}

TEST(EndToEnd, MobilityOverHierarchyKeepsNeighborListsUseful) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{77}};
  core::RgbConfig config;
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 4}};
  // 4x4 grid over the 16 APs.
  workload::MobilityConfig mob;
  mob.grid_width = 4;
  mob.grid_height = 4;
  mob.hosts = 25;
  mob.mean_dwell = sim::msec(500);
  mob.duration = sim::sec(8);
  workload::GridMobility mobility{simulator, sys, sys.aps(), mob};
  mobility.start();
  simulator.run();

  EXPECT_EQ(sys.membership(), mobility.expected_membership());
  // Every AP's neighbour list equals the members at its two ring
  // neighbours (the fast-handoff invariant).
  for (const auto ap : sys.aps()) {
    const auto* ne = sys.entity(ap);
    const auto expect_prev = ne->ring_members().members_at(ne->previous_node());
    const auto expect_next = ne->ring_members().members_at(ne->next_node());
    EXPECT_EQ(ne->neighbor_members().size(),
              expect_prev.size() +
                  (ne->previous_node() == ne->next_node() ? 0
                                                          : expect_next.size()));
  }
}

TEST(EndToEnd, QueriesDuringChurnReturnPlausibleViews) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{4321}};
  core::RgbConfig config;
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};

  workload::ChurnConfig churn_config;
  churn_config.initial_members = 10;
  churn_config.duration = sim::sec(6);
  workload::ChurnWorkload churn{simulator, sys, sys.aps(), churn_config};
  churn.start();

  core::QueryClient client{common::NodeId{990001}, network};
  std::size_t replies = 0;
  // Query every second while churning.
  for (int s = 1; s <= 5; ++s) {
    simulator.run_until(sim::sec(static_cast<std::uint64_t>(s)));
    std::optional<core::QueryClient::Result> result;
    client.issue(sys.query_plan(proto::QueryScheme::kTopmost), sim::sec(2),
                 [&](core::QueryClient::Result r) { result = std::move(r); });
    simulator.run_until(simulator.now() + sim::msec(200));
    if (result && result->complete) ++replies;
  }
  EXPECT_GE(replies, 4u);
  simulator.run();
  EXPECT_EQ(sys.membership(), churn.expected_membership());
}

TEST(EndToEnd, ApCrashDuringChurnDegradesGracefully) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{55}};
  core::RgbConfig config;
  config.retx_timeout = sim::msec(20);
  config.max_retx = 1;
  config.round_timeout = sim::msec(300);
  config.probe_period = sim::msec(200);
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 4}};
  sys.start_probing();

  // Members on several APs, then one AP dies mid-run.
  for (std::uint64_t g = 1; g <= 12; ++g) {
    sys.join(common::Guid{g}, sys.aps()[g % sys.aps().size()]);
  }
  simulator.run_until(sim::sec(1));
  const auto victim = sys.aps()[2];
  sys.crash_ne(victim);
  simulator.run_until(sim::sec(20));

  // Survivor views exclude exactly the members stranded at the victim.
  for (const auto id : sys.rings(0).front()) {
    const auto* ne = sys.entity(id);
    for (const auto& rec : ne->ring_members().snapshot()) {
      EXPECT_NE(rec.access_proxy, victim);
    }
  }
  EXPECT_GE(sys.metrics().repairs.value(), 1u);
}

// --- cross-protocol comparison on identical workloads ---------------------------

TEST(EndToEnd, AllProtocolsConvergeToSameMembership) {
  workload::ChurnConfig churn_config;
  churn_config.initial_members = 15;
  churn_config.join_rate = 2.0;
  churn_config.leave_rate = 1.0;
  churn_config.handoff_rate = 4.0;
  churn_config.fail_rate = 0.5;
  churn_config.duration = sim::sec(8);
  churn_config.seed = 321;

  std::vector<proto::MemberRecord> expected;
  std::vector<proto::MemberRecord> rgb_view, tree_view, flat_view, gossip_view;

  {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{9}};
    core::RgbSystem sys{network, core::RgbConfig{},
                        core::HierarchyLayout{2, 4}};
    workload::ChurnWorkload churn{simulator, sys, sys.aps(), churn_config};
    churn.start();
    simulator.run();
    rgb_view = sys.membership();
    expected = churn.expected_membership();
  }
  {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{9}};
    tree::TreeSystem sys{network, tree::TreeConfig{3, 4, true}};
    workload::ChurnWorkload churn{simulator, sys, sys.leaves(),
                                  churn_config};
    churn.start();
    simulator.run();
    tree_view = sys.membership();
  }
  {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{9}};
    flatring::FlatRingSystem sys{network, flatring::FlatRingConfig{16}};
    workload::ChurnWorkload churn{simulator, sys, sys.aps(), churn_config};
    churn.start();
    simulator.run();
    flat_view = sys.membership();
  }
  {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{9}};
    gossip::GossipSystem sys{network, gossip::GossipConfig{.nodes = 16},
                             common::RngStream{10}};
    sys.start();
    workload::ChurnWorkload churn{simulator, sys, sys.aps(), churn_config};
    churn.start();
    simulator.run_until(sim::sec(60));  // gossip needs extra settle time
    gossip_view = sys.membership();
  }

  // All protocols drove the same deterministic workload (same seed over
  // same-size AP sets): identical guid->index membership must result.
  auto normalise = [](std::vector<proto::MemberRecord> v) {
    // APs differ in absolute id across systems; compare guids only.
    std::vector<std::uint64_t> guids;
    for (const auto& rec : v) guids.push_back(rec.guid.value());
    return guids;
  };
  EXPECT_EQ(normalise(rgb_view), normalise(expected));
  EXPECT_EQ(normalise(tree_view), normalise(expected));
  EXPECT_EQ(normalise(flat_view), normalise(expected));
  EXPECT_EQ(normalise(gossip_view), normalise(expected));
}

TEST(EndToEnd, HandoffStormConverges) {
  // Regression for the stale-op/provenance MQ bugs: rapid ping-pong
  // handoffs race their own downward dissemination; the final view must
  // still match ground truth.
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{4242}};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{2, 4}};
  workload::MobilityConfig config;
  config.grid_width = 4;
  config.grid_height = 4;
  config.hosts = 30;
  config.mean_dwell = sim::msec(150);  // aggressive ping-pong
  config.duration = sim::sec(10);
  config.seed = 17;
  workload::GridMobility mobility{simulator, sys, sys.aps(), config};
  mobility.start();
  simulator.run();
  EXPECT_GT(mobility.handoffs_issued(), 1000u);
  EXPECT_EQ(sys.membership(), mobility.expected_membership());
  EXPECT_TRUE(sys.membership_converged());
}

TEST(EndToEnd, RgbIsQuietWhenIdleGossipIsNot) {
  // Structural efficiency contrast after convergence.
  std::uint64_t rgb_idle, gossip_idle;
  {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{9}};
    core::RgbSystem sys{network, core::RgbConfig{},
                        core::HierarchyLayout{2, 4}};
    sys.join(common::Guid{1}, sys.aps().front());
    simulator.run();
    const auto before = network.metrics().sent;
    simulator.run_until(simulator.now() + sim::sec(30));
    rgb_idle = network.metrics().sent - before;
  }
  {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{9}};
    gossip::GossipSystem sys{network, gossip::GossipConfig{.nodes = 16},
                             common::RngStream{10}};
    sys.start();
    sys.join(common::Guid{1}, sys.aps().front());
    simulator.run_until(sim::sec(5));
    const auto before = network.metrics().sent;
    simulator.run_until(simulator.now() + sim::sec(30));
    gossip_idle = network.metrics().sent - before;
  }
  EXPECT_EQ(rgb_idle, 0u);      // event-driven: silent when nothing changes
  EXPECT_GT(gossip_idle, 100u); // periodic probing never stops
}

}  // namespace
}  // namespace rgb
