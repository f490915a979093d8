// Experiment E8 — ablation of the self-optimising MQ (paper Section 4.2).
//
// A burst of b membership changes lands on one AP before the ring token is
// acquired. With aggregation the whole burst rides one round; without it
// every op pays its own round. A join followed by a leave of the same
// member collapses to the leave under aggregation, which rides the same
// round.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace {

using namespace rgb;  // NOLINT

struct Outcome {
  std::uint64_t rounds;
  std::uint64_t hops;
  double converge_ms;
};

Outcome run_burst(bool aggregate, int burst, bool leave_pairs) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{17}};
  core::RgbConfig config;
  config.aggregate_mq = aggregate;
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 5}};

  const auto ap = sys.aps().front();
  for (int i = 0; i < burst; ++i) {
    const common::Guid g{static_cast<std::uint64_t>(i + 1)};
    sys.join(g, ap);
    if (leave_pairs && i % 2 == 1) sys.leave(g);
  }
  simulator.run();
  return Outcome{sys.metrics().rounds_completed.value(),
                 core::proposal_hops(network), sim::to_ms(simulator.now())};
}

}  // namespace

int main() {
  bench::banner(
      "E8 / ablation — self-optimising MQ aggregation (h=2, r=5 hierarchy)",
      "burst of joins at one AP before the token is acquired;\n"
      "\"+leave\" rows add a leave for every second join, which\n"
      "aggregation collapses into that join's slot of the same round.");

  common::TextTable table({"workload", "aggregate", "rounds", "proposal hops",
                           "converge(ms)"});
  for (const int burst : {8, 32}) {
    for (const bool leave : {false, true}) {
      for (const bool aggregate : {true, false}) {
        const auto out = run_burst(aggregate, burst, leave);
        table.add_row({std::string("burst ") + std::to_string(burst) +
                           (leave ? " +leave" : ""),
                       aggregate ? "on" : "off", common::cell(out.rounds),
                       common::cell(out.hops),
                       common::cell(out.converge_ms, 1)});
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nshape check: aggregation turns O(burst) rounds into O(1)\n"
               "per ring, leaves included (a join and its leave become the\n"
               "leave alone); without it hops scale linearly with the burst\n"
               "size.\n";
  return 0;
}
