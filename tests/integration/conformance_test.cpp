// Cross-checks the running protocols against the paper's closed-form
// analysis: measured hop counts vs formulae (1)-(6) on Table I
// configurations, and the tree-vs-ring comparability claim.
#include <gtest/gtest.h>

#include "analysis/reliability.hpp"
#include "analysis/scalability.hpp"
#include "test_util.hpp"
#include "tree/tree_membership.hpp"

namespace rgb {
namespace {

/// One Table-I row: ring (h, r) with the paired tree (h+1, r).
struct TableIConfig {
  int ring_h;
  int r;
};

class TableIConformance : public ::testing::TestWithParam<TableIConfig> {};

TEST_P(TableIConformance, RingMeasuredEqualsFormula) {
  const auto& p = GetParam();
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{5}};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{p.ring_h, p.r}};
  sys.join(common::Guid{1}, sys.aps().front());
  simulator.run();

  const std::uint64_t hops = core::proposal_hops(network);
  EXPECT_EQ(hops, analysis::hcn_ring(p.ring_h, p.r));
  EXPECT_TRUE(sys.membership_converged());
}

TEST_P(TableIConformance, TreeMeasuredEqualsFormula) {
  const auto& p = GetParam();
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{5}};
  tree::TreeSystem sys{network, tree::TreeConfig{p.ring_h + 1, p.r, true}};
  sys.join(common::Guid{1}, sys.leaves().front());
  simulator.run();
  const std::uint64_t hops = network.metrics().sent_of(tree::kTreeProposal);
  EXPECT_EQ(hops, analysis::hcn_tree(p.ring_h + 1, p.r));
}

TEST_P(TableIConformance, GroupSizesMatchBetweenColumns) {
  const auto& p = GetParam();
  EXPECT_EQ(analysis::ring_ap_count(p.ring_h, p.r),
            analysis::tree_leaf_count(p.ring_h + 1, p.r));
}

// The first two Table-I rows per branching factor are simulated end-to-end;
// the largest (n=10000) is covered analytically in the bench.
INSTANTIATE_TEST_SUITE_P(PaperRows, TableIConformance,
                         ::testing::Values(TableIConfig{2, 5},
                                           TableIConfig{3, 5},
                                           TableIConfig{2, 10}));

TEST(Conformance, LargestSimulatedRow1000Aps) {
  // Table I row (n=1000, h=3, r=10): full simulation of 1110 NEs.
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{5}};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{3, 10}};
  sys.join(common::Guid{1}, sys.aps().front());
  simulator.run();
  const std::uint64_t hops = core::proposal_hops(network);
  EXPECT_EQ(hops, 1220u);  // the paper's printed HCN_Ring
}

TEST(Conformance, AggregatedChangesCostLessThanFormulaPerChange) {
  // Formula (6) prices changes individually; MQ aggregation amortises
  // several changes at one AP into a single round.
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{5}};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{2, 5}};
  for (std::uint64_t g = 1; g <= 10; ++g) {
    sys.join(common::Guid{g}, sys.aps().front());
  }
  simulator.run();
  const std::uint64_t hops = core::proposal_hops(network);
  EXPECT_LT(hops, 10 * analysis::hcn_ring(2, 5));
  EXPECT_EQ(sys.membership().size(), 10u);
}

TEST(Conformance, ControlTrafficExistsButIsNotCounted) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{5}};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{2, 3}};
  sys.join(common::Guid{1}, sys.aps().back());
  simulator.run();
  const std::uint64_t proposal = core::proposal_hops(network);
  const std::uint64_t control = network.metrics().sent - proposal;
  EXPECT_EQ(proposal, analysis::hcn_ring(2, 3));
  EXPECT_GT(control, 0u);  // acks, grants, releases exist on the wire
}

// Protocol-level reliability vs the structural model: inject node faults
// with probability f and check whether a membership change still fully
// disseminates. The implementation repairs single faults per ring, so its
// success rate must be at least the analytic Function-Well probability.
class ProtocolReliability : public ::testing::TestWithParam<double> {};

TEST_P(ProtocolReliability, DisseminationSucceedsAtLeastAsOftenAsModel) {
  const double f = GetParam();
  const int h = 2, r = 4;
  common::RngStream fault_rng{2024};
  int successes = 0;
  constexpr int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    sim::Simulator simulator;
    net::Network network{simulator,
                         common::RngStream{static_cast<std::uint64_t>(trial)}};
    core::RgbConfig config;
    config.retx_timeout = sim::msec(20);
    config.max_retx = 1;
    config.round_timeout = sim::msec(200);
    config.notify_timeout = sim::msec(150);
    config.max_notify_retx = 10;
    core::RgbSystem sys{network, config, core::HierarchyLayout{h, r}};

    // Uniform independent node faults, sparing the origin AP.
    for (const auto ne : sys.all_nes()) {
      if (ne == sys.aps().front()) continue;
      if (fault_rng.chance(f)) sys.crash_ne(ne);
    }
    sys.join(common::Guid{1}, sys.aps().front());
    simulator.run_until(sim::sec(30));

    // Success: every alive top-ring node learned the member.
    bool success = true;
    for (const auto id : sys.rings(0).front()) {
      if (network.is_crashed(id)) continue;
      if (!sys.entity(id)->ring_members().contains(common::Guid{1})) {
        success = false;
      }
    }
    if (success) ++successes;
  }
  // The analytic model is conservative (>=2 faults per ring = partition);
  // the implementation repairs sequentially, so it should do at least as
  // well. With few trials we only require "not dramatically worse".
  const double analytic = analysis::prob_fw_hierarchy(h, r, f, 1);
  EXPECT_GE(static_cast<double>(successes) / kTrials, analytic - 0.25);
}

INSTANTIATE_TEST_SUITE_P(FaultRates, ProtocolReliability,
                         ::testing::Values(0.0, 0.02, 0.05));

}  // namespace
}  // namespace rgb
