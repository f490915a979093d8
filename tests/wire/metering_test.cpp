// Encoded-byte metering: the network sizer re-prices registered messages
// at their exact framed size, the wire_size() estimates hold the
// estimate_consistent band against the encoder (the debug-assert,
// checked here explicitly so Release builds keep the guarantee), and the
// PR3 >=10x digest-traffic pin holds on real bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "exp/bench.hpp"
#include "net/network.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"
#include "wire/arbitrary.hpp"
#include "wire/metering.hpp"
#include "wire/registry.hpp"

namespace rgb::wire {
namespace {

/// Every wire_size() estimate stays inside the estimate_consistent band
/// for realistic message populations — the property the metering hook
/// debug-asserts per send, proven here over randomized messages so
/// Release builds (NDEBUG) keep the regression coverage.
TEST(EstimateBand, HoldsForRandomizedRealisticMessages) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{0xE57};
  for (const auto kind : registry.kinds()) {
    for (int iter = 0; iter < 128; ++iter) {
      ArbitraryOptions options;  // realistic profile
      const auto payload = arbitrary_payload(kind, rng, options);
      const std::uint32_t encoded = registry.encoded_size(kind, payload);
      ASSERT_GT(encoded, 0u);
      std::uint32_t estimate = estimated_wire_size(kind, payload);
      if (estimate == 0) estimate = 64;  // flat default at those send sites
      EXPECT_TRUE(estimate_consistent(estimate, encoded))
          << registry.find(kind)->name << ": estimate " << estimate
          << " vs encoded " << encoded;
    }
  }
}

/// The network meters encoded bytes once the sizer is attached: every
/// tapped envelope of a registered kind carries exactly the registry's
/// framed size, and over a fully drained run (no in-flight messages left)
/// the per-kind counters equal the tap's sums.
TEST(EncodedMetering, NetworkCountsExactEncodedBytes) {
  common::RngStream rng{0x31E7};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  std::uint64_t tap_bytes = 0;
  std::uint64_t tap_msgs = 0;
  network.set_tap([&](const net::Envelope& env, bool) {
    // The sizer runs before metering, so env.size_bytes here is already
    // the encoded size for registered kinds.
    ++tap_msgs;
    tap_bytes += env.size_bytes;
    EXPECT_EQ(env.size_bytes,
              WireRegistry::global().encoded_size(env.kind, env.payload))
        << "kind " << env.kind;
  });

  core::RgbConfig config;  // probing off: the run drains completely
  ASSERT_TRUE(config.wire_metering) << "encoded metering is the default";
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  ASSERT_TRUE(network.has_sizer());
  for (std::uint64_t i = 1; i <= 8; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  simulator.run();  // drained: every sent message has reached its verdict

  const auto& metrics = network.metrics();
  EXPECT_GT(metrics.bytes_of(core::kind::kToken), 0u);
  EXPECT_GT(metrics.bytes_of(core::kind::kNotifyParent), 0u);
  EXPECT_EQ(metrics.sent, tap_msgs);
  EXPECT_EQ(metrics.bytes_sent, tap_bytes);
}

/// kViewSync specifically (the re-pinned traffic claim's kind) is metered
/// at encoded size: the tap asserts per-envelope equality while probing.
TEST(EncodedMetering, ViewSyncEnvelopesCarryEncodedSize) {
  common::RngStream rng{0x31E8};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  std::uint64_t viewsyncs = 0;
  network.set_tap([&](const net::Envelope& env, bool) {
    if (env.kind != core::kind::kViewSync) return;
    ++viewsyncs;
    EXPECT_EQ(env.size_bytes,
              WireRegistry::global().encoded_size(env.kind, env.payload));
  });
  core::RgbConfig config;
  config.probe_period = sim::msec(100);
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 8; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  simulator.run_until(sim::sec(2));
  EXPECT_GT(viewsyncs, 0u);
}

/// wire_metering=false restores the estimate-based cost model (the A/B
/// baseline): no sizer is installed and the old numbers are metered.
TEST(EncodedMetering, OptOutKeepsEstimates) {
  common::RngStream rng{0x0FF};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbConfig config;
  config.wire_metering = false;
  core::RgbSystem sys{network, config, core::HierarchyLayout{1, 3}};
  EXPECT_FALSE(network.has_sizer());
  sys.join(common::Guid{1}, sys.aps().front());
  simulator.run();
  EXPECT_GT(network.metrics().bytes_sent, 0u);
}

/// The PR3 acceptance claim, re-validated on real encoded bytes: the
/// steady-state kViewSync traffic is the same at N=250 and N=1000 on one
/// layout. (exp::run_scale_trial runs with wire_metering on.)
TEST(EncodedMetering, SteadyDigestTrafficFlatOnRealBytes) {
  exp::ScaleConfig config;
  config.members = 250;
  const exp::ScaleStats small = exp::run_scale_trial(config, false);
  config.members = 1000;
  const exp::ScaleStats large = exp::run_scale_trial(config, false);
  ASSERT_TRUE(small.converged);
  ASSERT_TRUE(large.converged);
  ASSERT_GT(small.viewsync_bytes, 0u);
  EXPECT_EQ(small.viewsync_bytes, large.viewsync_bytes)
      << "N=250: " << small.viewsync_bytes
      << " N=1000: " << large.viewsync_bytes;
}

}  // namespace
}  // namespace rgb::wire
