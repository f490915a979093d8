// Experiment E4 — the paper's §6 delay claim: "the delay for propagating
// membership messages with small-scale logical rings is smaller compared
// with that with large-scale logical rings".
//
// Fixed group size (125 APs), three shapes:
//   * one flat 125-node ring (Totem-like baseline),
//   * RGB hierarchies of heights 1..3 (ring sizes 125, ~11, 5),
// measuring the virtual time from a Member-Join until the change has fully
// propagated, and the proposal hops spent.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "flatring/flat_ring.hpp"

namespace {

using namespace rgb;  // NOLINT

struct Shape {
  const char* name;
  int tiers;
  int ring_size;
};

struct Outcome {
  double converge_ms;
  std::uint64_t hops;
};

Outcome run_rgb(int tiers, int ring_size) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{3}};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{tiers, ring_size}};
  sys.join(common::Guid{1}, sys.aps().front());
  simulator.run();
  return Outcome{sim::to_ms(simulator.now()),
                 core::proposal_hops(network)};
}

Outcome run_flat(int nodes) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{3}};
  flatring::FlatRingSystem sys{network, flatring::FlatRingConfig{nodes}};
  sys.join(common::Guid{1}, sys.aps().front());
  simulator.run();
  return Outcome{sim::to_ms(simulator.now()),
                 network.metrics().sent_of(flatring::kRingToken)};
}

}  // namespace

int main() {
  bench::banner(
      "E4 / Section 6 claim — propagation delay: small vs large rings",
      "one membership change, 1ms links, time until every node knows.\n"
      "n(APs) held near 125; deeper hierarchies = smaller rings.");

  common::TextTable table(
      {"shape", "APs", "ring size r", "converge(ms)", "proposal hops"});

  const auto flat = run_flat(125);
  table.add_row({"flat single ring", common::cell(125), common::cell(125),
                 common::cell(flat.converge_ms, 1), common::cell(flat.hops)});

  const Shape shapes[] = {
      {"RGB h=1 (one ring)", 1, 125},
      {"RGB h=2 (rings of ~11)", 2, 11},   // 121 APs
      {"RGB h=3 (rings of 5)", 3, 5},      // 125 APs
  };
  for (const Shape& s : shapes) {
    const auto out = run_rgb(s.tiers, s.ring_size);
    std::uint64_t aps = 1;
    for (int i = 0; i < s.tiers; ++i) aps *= static_cast<std::uint64_t>(s.ring_size);
    table.add_row({s.name, common::cell(aps), common::cell(s.ring_size),
                   common::cell(out.converge_ms, 1), common::cell(out.hops)});
  }
  table.print(std::cout);

  std::cout
      << "\nshape check: convergence time drops sharply as rings shrink\n"
         "(rounds in different rings run concurrently; a flat 125-ring\n"
         "serialises 125 sequential hops), at the price of the extra\n"
         "notification hops the hierarchy spends — exactly the paper's\n"
         "small-ring argument.\n";
  return 0;
}
