// Multi-observer cut detection (the stability layer): K-alert aggregation
// into one batched reconfiguration, flap suppression under loss bursts via
// alert retraction, the bounded stability-timeout fallback that preserves
// the single-observer liveness bound, batched silent-member flushes on the
// MH detection path, a deadline cut that waits on its verifications
// without a timer, a peer's repair consuming pending evidence, and a
// token-retx alert that completes a cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "rgb/mobile_host.hpp"
#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

/// fast_failure_config (failure_test.cpp) + the stability plane enabled
/// with its defaults (K = 2, window 150ms, timeout 400ms).
RgbConfig stability_config() {
  RgbConfig config;
  config.retx_timeout = sim::msec(20);
  config.max_retx = 1;
  config.round_timeout = sim::msec(300);
  config.notify_timeout = sim::msec(200);
  config.probe_period = sim::msec(100);
  config.stability = true;
  return config;
}

class StabilityTest : public RgbSystemTest {};

TEST_F(StabilityTest, MultipleObserversOfDeadLeaderFireOneBatchedCut) {
  auto& sys = build(1, 5, stability_config());
  const auto& ring = sys.rings(0).front();
  sys.crash_ne(ring[0]);  // the leader
  // Two members with pending ops independently exhaust their token-request
  // retx against the dead leader: two alerts, one aggregator (the
  // presumptive next leader), K = 2 reached -> ONE batched cut.
  sys.join(common::Guid{1}, ring[2]);
  sys.join(common::Guid{2}, ring[3]);
  run_for_ms(4000);
  EXPECT_GE(sys.metrics().stability_alerts.value(), 2u);
  EXPECT_EQ(sys.metrics().stability_cuts.value(), 1u);
  EXPECT_EQ(sys.metrics().repairs.value(), 1u);  // one reconfiguration
  for (const auto id : {ring[1], ring[2], ring[3], ring[4]}) {
    const auto* ne = sys.entity(id);
    EXPECT_EQ(ne->leader(), ring[1]) << "node " << id.value();
    EXPECT_EQ(ne->roster().size(), 4u);
    EXPECT_TRUE(ne->ring_members().contains(common::Guid{1}));
    EXPECT_TRUE(ne->ring_members().contains(common::Guid{2}));
  }
}

TEST_F(StabilityTest, ApCrashCutBatchesStrandedMembersIntoOneFlush) {
  auto& sys = build(1, 5, stability_config());
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  sys.join(common::Guid{1}, ring[2]);
  sys.join(common::Guid{2}, ring[2]);
  run_for_ms(500);
  sys.crash_ne(ring[2]);
  run_for_ms(4000);
  // One cut: the NE splice and both stranded Member-Failures ride a single
  // batched op flush (one RepairMsg, one token round), not one round each.
  EXPECT_EQ(sys.metrics().stability_cuts.value(), 1u);
  EXPECT_EQ(sys.metrics().repairs.value(), 1u);
  for (const auto id : {ring[0], ring[1], ring[3], ring[4]}) {
    const auto* ne = sys.entity(id);
    EXPECT_EQ(ne->roster().size(), 4u) << "node " << id.value();
    EXPECT_FALSE(ne->ring_members().contains(common::Guid{1}));
    EXPECT_FALSE(ne->ring_members().contains(common::Guid{2}));
  }
}

TEST_F(StabilityTest, LossBurstBelowThresholdCausesNoViewChanges) {
  RgbConfig config = stability_config();
  // Window wide enough that a live suspect's ack (retried every
  // retx_timeout) beats it even through the burst.
  config.stability_window = sim::msec(300);
  config.stability_timeout = sim::msec(800);
  auto& sys = build(1, 5, config);
  sys.start_probing();
  run_for_ms(500);
  const std::uint64_t pre_vc = sys.obs().tracer.view_changes().value();
  ASSERT_EQ(sys.metrics().repairs.value(), 0u);

  network_.set_default_drop_probability(0.5);
  run_for_ms(250);
  network_.set_default_drop_probability(0.0);
  run_for_ms(2000);

  // The burst raised suspicions, but every suspect answered its alert:
  // all flaps retracted, zero reconfigurations, zero view changes.
  EXPECT_GE(sys.metrics().stability_suppressed_flaps.value(), 1u);
  EXPECT_EQ(sys.metrics().repairs.value(), 0u);
  EXPECT_EQ(sys.obs().tracer.view_changes().value(), pre_vc);
  for (const auto id : sys.rings(0).front()) {
    EXPECT_EQ(sys.entity(id)->roster().size(), 5u) << "node " << id.value();
  }
}

TEST_F(StabilityTest, SameLossBurstFlapsWithoutStability) {
  // Control cell for the test above: identical burst, stability off —
  // the single-observer detectors declare at least one false failure.
  RgbConfig config = stability_config();
  config.stability = false;
  auto& sys = build(1, 5, config);
  sys.start_probing();
  run_for_ms(500);
  network_.set_default_drop_probability(0.5);
  run_for_ms(250);
  network_.set_default_drop_probability(0.0);
  run_for_ms(2000);
  EXPECT_GE(sys.metrics().repairs.value(), 1u);
}

namespace latency {

/// Detection latency (crash -> splice, tracer ne_detection max) of one
/// crashed non-leader under probing, with and without the stability layer.
double crash_detection_max(bool stability) {
  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{42}};
  RgbConfig config = stability_config();
  config.stability = stability;
  // The 2x bound holds whenever stability_window fits inside the
  // single-observer detection budget (probe wait + retx exhaustion). The
  // production defaults satisfy this against the conformance config
  // (150ms window vs ~500ms budget); this test's sped-up detectors have a
  // ~100ms budget, so the window scales down with them.
  config.stability_window = sim::msec(60);
  config.stability_timeout = sim::msec(200);
  RgbSystem sys{network, config, HierarchyLayout{1, 5}};
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  // Mid-probe-period crash: the baseline includes the probe wait that a
  // real detection pays (crashing exactly on a round boundary would make
  // the single-observer baseline artificially instantaneous).
  simulator.run_until(sim::msec(530));
  sys.crash_ne(ring[2]);
  simulator.run_until(sim::sec(5));
  EXPECT_GE(sys.obs().tracer.ne_detection().count(), 1u)
      << "stability=" << stability;
  return sys.obs().tracer.ne_detection().max();
}

}  // namespace latency

TEST_F(StabilityTest, DetectionLatencyStaysWithinTwiceSingleObserver) {
  // A real crash has no counter-observation, so the cut fires at window
  // expiry: total latency = single-observer detection + stability_window,
  // which the defaults keep within 2x the single-observer bound.
  const double base = latency::crash_detection_max(false);
  const double stab = latency::crash_detection_max(true);
  EXPECT_GT(base, 0.0);
  EXPECT_LE(stab, 2.0 * base);
}

TEST_F(StabilityTest, StabilityTimeoutFallbackPreservesLiveness) {
  RgbConfig config = stability_config();
  // Pathological aggregator window: the cut would only fire after 30s. The
  // observer's bounded fallback must not wait for it.
  config.stability_window = sim::sec(30);
  config.stability_timeout = sim::msec(400);
  auto& sys = build(1, 5, config);
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  run_for_ms(500);
  sys.crash_ne(ring[2]);
  run_for_ms(3000);
  EXPECT_GE(sys.metrics().stability_timeout_fallbacks.value(), 1u);
  EXPECT_GE(sys.metrics().repairs.value(), 1u);
  for (const auto id : {ring[0], ring[1], ring[3], ring[4]}) {
    EXPECT_EQ(sys.entity(id)->roster().size(), 4u) << "node " << id.value();
  }
}

TEST_F(StabilityTest, SilentMembersAreDeferredAndBatchFailed) {
  RgbConfig config = stability_config();
  config.mh_failure_timeout = sim::sec(1);
  auto& sys = build(1, 3, config);
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  // Two heartbeating hosts on the same AP.
  std::vector<std::unique_ptr<MobileHost>> hosts;
  for (std::uint64_t i = 0; i < 2; ++i) {
    hosts.push_back(std::make_unique<MobileHost>(
        common::NodeId{900001 + i}, common::Guid{i + 1}, common::GroupId{1},
        network_, sim::msec(100)));
    hosts[i]->join_via(ring[1]);
  }
  run_for_ms(2000);
  for (const auto id : ring) {
    ASSERT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{1}));
  }
  // Both go silent together: the sweep defers them (counter-probe goes
  // unanswered), then one flush batch-fails the pair.
  hosts[0]->fail();
  hosts[1]->fail();
  run_for_ms(5000);
  EXPECT_GE(sys.metrics().stability_batched_failures.value(), 2u);
  EXPECT_EQ(sys.metrics().repairs.value(), 0u);  // no ring reconfiguration
  for (const auto id : ring) {
    const auto* ne = sys.entity(id);
    EXPECT_FALSE(ne->ring_members().contains(common::Guid{1}));
    EXPECT_FALSE(ne->ring_members().contains(common::Guid{2}));
  }
}

TEST_F(StabilityTest, LiveMemberAnswersCounterProbeAndIsKept) {
  RgbConfig config = stability_config();
  config.mh_failure_timeout = sim::msec(500);
  auto& sys = build(1, 3, config);
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  // Heartbeat period much longer than the failure timeout: every sweep
  // sees the member as silent, but the kAlert counter-probe wakes it into
  // an immediate heartbeat — deferred, never declared.
  auto host = std::make_unique<MobileHost>(common::NodeId{900001},
                                           common::Guid{1}, common::GroupId{1},
                                           network_, sim::sec(2));
  host->join_via(ring[1]);
  run_for_ms(6000);
  EXPECT_GE(sys.metrics().stability_suppressed_flaps.value(), 1u);
  for (const auto id : ring) {
    EXPECT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{1}))
        << "node " << id.value();
  }
}

/// A deadline-path cut of one crashed non-leader: the ring leader holds a
/// single observation, and when the window closes it verifies the suspect
/// with (max_retx + 1) pings, retx_timeout apart. Waiting on them costs the
/// pings and their timers, not one simulator event per microsecond.
TEST_F(StabilityTest, CutVerificationRunsOPingsEvents) {
  RgbConfig config = stability_config();
  config.max_retx = 3;  // an 80ms verification: 80,000 polls at 1us
  auto& sys = build(1, 5, config);
  const auto& ring = sys.rings(0).front();
  sys.start_probing();
  run_for_ms(530);
  sys.crash_ne(ring[2]);
  while (sys.metrics().stability_alerts.value() == 0) run_for_ms(1);
  // From the first alert to the cut: the window, the verification, and
  // the probe, ping and alert traffic of five NEs around them.
  std::uint64_t events = 0;
  int waited_ms = 0;
  while (sys.metrics().stability_cuts.value() == 0 && waited_ms < 2000) {
    events += run_for_ms(1);
    ++waited_ms;
  }
  ASSERT_EQ(sys.metrics().stability_cuts.value(), 1u);
  EXPECT_GE(waited_ms, 150 + 80) << "the window, then the verification";
  EXPECT_LT(events, 1000u) << "over " << waited_ms << "ms";
  run_for_ms(10);  // the cut's RepairMsg reaches the survivors
  for (const auto id : {ring[0], ring[1], ring[3], ring[4]}) {
    EXPECT_EQ(sys.entity(id)->roster().size(), 4u) << "node " << id.value();
  }
}

/// The aggregator holds an alert against a crashed NE when a peer's
/// RepairMsg splices that NE out. The repair is the verdict: the alert
/// must not ride out the window into a cut of a node already gone, and
/// the observer must stop pinging it.
TEST_F(StabilityTest, PeerRepairConsumesPendingAlert) {
  auto& sys = build(1, 5, stability_config());
  const auto& ring = sys.rings(0).front();
  const NodeId suspect = ring[2];
  sys.start_probing();
  run_for_ms(530);
  sys.crash_ne(suspect);
  while (sys.metrics().stability_alerts.value() == 0) run_for_ms(1);
  run_for_ms(2);  // the alert lands at the leader's aggregator
  ASSERT_EQ(sys.metrics().stability_cuts.value(), 0u);

  // A peer's repair of the suspect reaches every survivor.
  const std::vector<NodeId> survivors{ring[0], ring[1], ring[3], ring[4]};
  for (const NodeId to : survivors) {
    const NodeId from = to == ring[3] ? ring[4] : ring[3];
    const RepairMsg repair{from, {suspect}};
    network_.send(
        net::Envelope{from, to, kind::kRepair, wire_size(repair), repair});
  }
  run_for_ms(2);
  for (const NodeId id : survivors) {
    ASSERT_EQ(sys.entity(id)->roster().size(), 4u) << "node " << id.value();
  }

  std::uint64_t pings = 0;
  network_.set_tap([&](const net::Envelope& env, bool) {
    if (env.kind == kind::kAlert && env.dst == suspect) ++pings;
  });
  run_for_ms(2000);
  EXPECT_EQ(sys.metrics().stability_cuts.value(), 0u);
  const auto events = sys.obs().tracer.flight_events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const obs::FlightEvent& e) {
                            return e.kind == obs::FlightKind::kCutApplied;
                          }),
            0);
  EXPECT_EQ(pings, 0u) << "no observer or aggregator pings a repaired NE";
}

/// The `rgb_fuzz --churn 1 --stability 1` seeds at which a token hop's
/// retx timeout files an alert that completes a cut at the aggregating
/// leader on the spot. The cut reroutes that very hop and erases its
/// entry, so the retransmission must look the hop up again rather than
/// resend through the freed one. Without the re-lookup seeds 35 and 67
/// crash a Release build, and the sanitizer build, which runs this suite,
/// flags all four.
class RetxAlertThatCompletesACut
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetxAlertThatCompletesACut, FuzzSeedPasses) {
  check::AdversarialConfig cfg;
  cfg.stability = true;
  cfg.gen.churn = true;
  const std::uint64_t seed = GetParam();
  const check::CheckRunResult result =
      check::run_schedule(cfg, check::random_schedule_for(cfg, seed), seed);
  EXPECT_TRUE(result.passed()) << result.report.format();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetxAlertThatCompletesACut,
                         ::testing::Values(35, 36, 40, 67));

}  // namespace
}  // namespace rgb::core
