// Tree-based hierarchy baseline: structure, representative co-location,
// flooding dissemination, and hop-count conformance with formulae (1)-(4).
#include "tree/tree_membership.hpp"

#include <gtest/gtest.h>

#include "analysis/scalability.hpp"
#include "test_util.hpp"

namespace rgb::tree {
namespace {

class TreeTest : public rgb::testing::SimNetTest {
 protected:
  std::unique_ptr<TreeSystem> make(int h, int r, bool representatives) {
    TreeConfig config;
    config.height = h;
    config.branching = r;
    config.representatives = representatives;
    return std::make_unique<TreeSystem>(network_, config);
  }

  std::uint64_t proposal_hops() const {
    return network_.metrics().sent_of(kTreeProposal);
  }
};

TEST_F(TreeTest, BuildsFullRaryTree) {
  auto sys = make(3, 5, true);
  EXPECT_EQ(sys->leaves().size(), 25u);  // r^(h-1)
  EXPECT_EQ(sys->root()->level(), 0);
  EXPECT_EQ(sys->root()->children().size(), 5u);
}

TEST_F(TreeTest, RepresentativeCoLocationChainsToLowestGms) {
  auto sys = make(4, 3, true);
  // Root co-locates with its first child, chained to level h-2.
  const TreeServer* root = sys->root();
  const TreeServer* first_child = root->children().front();
  EXPECT_EQ(root->physical(), first_child->physical());
  // Leaves are their own physical hosts.
  const auto* leaf = sys->server(sys->leaves().front());
  EXPECT_EQ(leaf->physical(), leaf->id());
}

TEST_F(TreeTest, WithoutRepresentativesAllPhysicalDistinct) {
  auto sys = make(3, 3, false);
  EXPECT_NE(sys->root()->physical(),
            sys->root()->children().front()->physical());
}

TEST_F(TreeTest, JoinFloodsToAllServers) {
  auto sys = make(3, 3, true);
  sys->join(common::Guid{1}, sys->leaves().front());
  run_all();
  EXPECT_TRUE(sys->converged());
  EXPECT_EQ(sys->membership().size(), 1u);
}

// Hop-count conformance: measured == formula (4) with representatives,
// formula (1)/n without.
struct TreeHopCase {
  int h;
  int r;
};

class TreeHopConformance
    : public rgb::testing::SimNetTest,
      public ::testing::WithParamInterface<TreeHopCase> {
 protected:
  std::uint64_t proposal_hops() const {
    return network_.metrics().sent_of(kTreeProposal);
  }
};

TEST_P(TreeHopConformance, WithRepresentativesMatchesFormula4) {
  const auto& p = GetParam();
  TreeConfig config{p.h, p.r, true};
  TreeSystem sys{network_, config};
  sys.join(common::Guid{1}, sys.leaves().front());
  run_all();
  EXPECT_EQ(proposal_hops(), analysis::hcn_tree(p.h, p.r))
      << "h=" << p.h << " r=" << p.r;
  EXPECT_TRUE(sys.converged());
}

TEST_P(TreeHopConformance, WithoutRepresentativesMatchesFormula1) {
  const auto& p = GetParam();
  TreeConfig config{p.h, p.r, false};
  TreeSystem sys{network_, config};
  sys.join(common::Guid{1}, sys.leaves().front());
  run_all();
  EXPECT_EQ(proposal_hops(),
            analysis::hopcount_tree_plain(p.h, p.r) /
                analysis::tree_leaf_count(p.h, p.r))
      << "h=" << p.h << " r=" << p.r;
}

// For h <= 4 the physically consistent co-location model and the paper's
// formula (2) agree exactly; see the DeepTree test below for h >= 5.
INSTANTIATE_TEST_SUITE_P(Shapes, TreeHopConformance,
                         ::testing::Values(TreeHopCase{3, 2}, TreeHopCase{3, 3},
                                           TreeHopCase{3, 5}, TreeHopCase{4, 2},
                                           TreeHopCase{4, 3},
                                           TreeHopCase{4, 5}));

TEST_F(TreeTest, DeepTreeFormula2SlightlyOvercountsVsPhysicalModel) {
  // Reproduction finding (documented in EXPERIMENTS.md): at height h >= 5
  // the paper's formula (2) counts chain-top GMSs at level i as
  // r^i - sum_{j<i} r^j, but a physically consistent first-child
  // co-location has r^i - r^(i-1) chain tops, i.e. one more free edge per
  // deep level. Measured hops are therefore <= the formula by a small
  // margin that is independent of r's magnitude.
  for (const int r : {2, 3, 5}) {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{1}};
    TreeConfig config{5, r, true};
    TreeSystem sys{network, config};
    sys.join(common::Guid{1}, sys.leaves().front());
    simulator.run();
    const std::uint64_t hops = network.metrics().sent_of(kTreeProposal);
    const std::uint64_t formula = analysis::hcn_tree(5, r);
    EXPECT_LE(hops, formula) << "r=" << r;
    EXPECT_GE(hops + 4, formula) << "r=" << r;  // off by O(h) edges only
    EXPECT_TRUE(sys.converged());
  }
}

TEST_F(TreeTest, HandoffMovesMemberBetweenLeaves) {
  auto sys = make(3, 3, true);
  sys->join(common::Guid{1}, sys->leaves().front());
  run_all();
  sys->handoff(common::Guid{1}, sys->leaves().back());
  run_all();
  EXPECT_TRUE(sys->converged());
  const auto view = sys->membership();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0].access_proxy, sys->leaves().back());
}

TEST_F(TreeTest, LeaveAndFailRemove) {
  auto sys = make(3, 3, true);
  sys->join(common::Guid{1}, sys->leaves()[0]);
  sys->join(common::Guid{2}, sys->leaves()[1]);
  run_all();
  sys->leave(common::Guid{1});
  sys->fail(common::Guid{2});
  run_all();
  EXPECT_TRUE(sys->membership().empty());
  EXPECT_TRUE(sys->converged());
}

TEST_F(TreeTest, CrashedGmsCutsOffSubtree) {
  // The reliability weakness the paper exploits: no repair in the tree.
  auto sys = make(3, 3, false);
  TreeServer* gms = sys->root()->children().front();  // level-1 GMS
  network_.crash(gms->id());
  // Join at a leaf under the crashed GMS: the rest of the tree never hears.
  const auto* leaf_under = gms->children().front();
  sys->join(common::Guid{1}, leaf_under->id());
  run_all();
  EXPECT_FALSE(sys->root()->members().contains(common::Guid{1}));
  // A join elsewhere also never reaches the dead GMS's subtree.
  sys->join(common::Guid{2}, sys->leaves().back());
  run_all();
  EXPECT_TRUE(sys->root()->members().contains(common::Guid{2}));
  EXPECT_FALSE(leaf_under->members().contains(common::Guid{2}));
}

TEST_F(TreeTest, RepresentativeCrashIsSeveralLogicalFaults) {
  // Crashing the physical node that hosts the root chain kills root AND its
  // co-located descendants in one blow — the paper's argument for why the
  // tree with representatives is less reliable.
  auto sys = make(4, 3, true);
  const auto phys = sys->root()->physical();
  int logical_roles_lost = 0;
  // Count logical servers sharing that physical host.
  std::function<void(const TreeServer*)> walk = [&](const TreeServer* s) {
    if (s->physical() == phys) ++logical_roles_lost;
    for (const auto* c : s->children()) walk(c);
  };
  walk(sys->root());
  EXPECT_GE(logical_roles_lost, 3);  // root + chained GMS levels
}

TEST_F(TreeTest, BmsQueryUnionsLeaves) {
  auto sys = make(3, 3, true);
  sys->join(common::Guid{1}, sys->leaves()[0]);
  sys->join(common::Guid{2}, sys->leaves()[4]);
  run_all();
  const auto view = sys->membership(proto::QueryScheme::kBottommost);
  EXPECT_EQ(view.size(), 2u);
}

}  // namespace
}  // namespace rgb::tree
