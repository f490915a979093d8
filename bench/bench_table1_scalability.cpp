// Experiment E1 — reproduces Table I of the paper: normalised hop counts
// HCN_Tree vs HCN_Ring for the six (n, h, r) configurations, from
//   (a) the closed-form formulae (1)-(6), and
//   (b) full discrete-event simulation of one membership change through
//       the actual tree and ring implementations (every row simulated,
//       including n = 10000).
#include <iostream>

#include "analysis/scalability.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "tree/tree_membership.hpp"

namespace {

using namespace rgb;  // NOLINT

std::uint64_t simulate_ring(int h, int r) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{1}};
  core::RgbSystem sys{network, core::RgbConfig{}, core::HierarchyLayout{h, r}};
  sys.join(common::Guid{1}, sys.aps().front());
  simulator.run();
  return core::proposal_hops(network);
}

std::uint64_t simulate_tree(int h, int r) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{1}};
  tree::TreeSystem sys{network, tree::TreeConfig{h, r, true}};
  sys.join(common::Guid{1}, sys.leaves().front());
  simulator.run();
  return network.metrics().sent_of(tree::kTreeProposal);
}

}  // namespace

int main() {
  bench::banner(
      "E1 / Table I — scalability: tree vs ring normalised hop count",
      "paper columns: n,h,r and HCN per hierarchy; our extra columns show\n"
      "the hop count measured by simulating one Member-Join end-to-end\n"
      "(tree sim differs from formula by O(h) at h=5: formula (2) counts\n"
      "one fewer representative chain per deep level; see EXPERIMENTS.md).");

  common::TextTable table({"n", "h_tree", "r", "HCN_tree", "sim_tree",
                           "h_ring", "HCN_ring", "sim_ring"});
  for (const auto& row : analysis::paper_table1()) {
    table.add_row({common::cell(row.n_tree), common::cell(row.h_tree),
                   common::cell(row.r), common::cell(row.hcn_tree),
                   common::cell(simulate_tree(row.h_tree, row.r)),
                   common::cell(row.h_ring), common::cell(row.hcn_ring),
                   common::cell(simulate_ring(row.h_ring, row.r))});
  }
  table.print(std::cout);

  std::cout << "\npaper Table I reference values: HCN_tree = 29, 149, 750, "
               "109, 1099, 11000;\nHCN_ring = 35, 185, 935, 120, 1220, "
               "12220 — identical to the analytic columns above.\n";
  return 0;
}
