// Shared test fixtures: a simulator + network pair and helpers to build RGB
// hierarchies and drive them to quiescence.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "net/network.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"

namespace rgb::testing {

/// Simulator + network with a fixed 1ms link latency (deterministic hop
/// ordering) unless overridden.
class SimNetTest : public ::testing::Test {
 protected:
  explicit SimNetTest(net::LinkConfig link = {}, std::uint64_t seed = 42)
      : network_(simulator_, common::RngStream{seed}, link) {}

  /// Runs the simulation to exhaustion (bounded) and returns events run.
  std::uint64_t run_all(std::uint64_t max_events = 20'000'000) {
    return simulator_.run(max_events);
  }

  /// Runs for `ms` simulated milliseconds.
  std::uint64_t run_for_ms(std::uint64_t ms) {
    return simulator_.run_until(simulator_.now() + sim::msec(ms));
  }

  sim::Simulator simulator_;
  net::Network network_;
};

/// SimNetTest plus a ready-built RGB hierarchy.
class RgbSystemTest : public SimNetTest {
 protected:
  RgbSystemTest() = default;

  core::RgbSystem& build(int tiers, int ring_size,
                         core::RgbConfig config = {}) {
    core::HierarchyLayout layout;
    layout.ring_tiers = tiers;
    layout.ring_size = ring_size;
    system_ = std::make_unique<core::RgbSystem>(network_, config, layout);
    return *system_;
  }

  /// Total proposal-plane hops (token + notifications) since the last
  /// metrics reset — the quantity Table I counts.
  [[nodiscard]] std::uint64_t proposal_hops() const {
    return core::proposal_hops(network_);
  }

  std::unique_ptr<core::RgbSystem> system_;
};

}  // namespace rgb::testing
