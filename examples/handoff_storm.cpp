// Handoff storm: the "smaller cells => more frequent handoffs" stress of
// the paper's introduction, driven by the grid mobility model.
//
// 60 mobile hosts roam a 6x6 cell grid (one AP per cell) with short dwell
// times. We track how the MQ aggregation and the neighbour lists behave
// under handoff pressure and verify the hierarchy converges to the ground
// truth once movement stops.
//
//   $ ./examples/handoff_storm
#include <iostream>

#include "rgb/rgb.hpp"
#include "workload/mobility.hpp"

int main() {
  using namespace rgb;  // NOLINT

  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{4242}};

  // 36 APs: a 2-tier hierarchy with 6-node rings (6 AP rings of 6).
  core::RgbConfig config;
  core::RgbSystem rgb{network, config,
                      core::HierarchyLayout{.ring_tiers = 2, .ring_size = 6}};

  workload::MobilityConfig mobility_config;
  mobility_config.grid_width = 6;
  mobility_config.grid_height = 6;
  mobility_config.hosts = 60;
  mobility_config.mean_dwell = sim::msec(400);  // aggressive roaming
  mobility_config.duration = sim::sec(20);
  mobility_config.seed = 17;
  workload::GridMobility mobility{simulator, rgb, rgb.aps(),
                                  mobility_config};
  mobility.start();

  std::cout << "sec | handoffs | rounds | proposal msgs\n";
  for (int second = 5; second <= 20; second += 5) {
    simulator.run_until(sim::sec(static_cast<std::uint64_t>(second)));
    const std::uint64_t proposal = core::proposal_hops(network);
    std::cout << "  " << second << " | " << mobility.handoffs_issued()
              << " | " << rgb.metrics().rounds_completed.value() << " | "
              << proposal << "\n";
  }

  simulator.run();  // drain
  const bool match = rgb.membership() == mobility.expected_membership();
  std::cout << "\nstorm finished: " << mobility.handoffs_issued()
            << " handoffs issued; final view "
            << (match ? "matches" : "DIFFERS FROM") << " ground truth\n";

  // Fast-handoff state: every AP can see the members parked at its ring
  // neighbours (the paper's ListOfNeighborMembers).
  std::size_t neighbour_entries = 0;
  for (const auto ap : rgb.aps()) {
    neighbour_entries += rgb.entity(ap)->neighbor_members().size();
  }
  std::cout << "neighbour lists now hold " << neighbour_entries
            << " member entries across " << rgb.aps().size()
            << " APs (handoff admission can skip the hierarchy for "
               "adjacent-cell moves)\n";
  std::cout << "MQ aggregation collapsed "
            << rgb.metrics().ops_aggregated.value()
            << " ops before they hit the wire\n";
  return match ? 0 : 1;
}
