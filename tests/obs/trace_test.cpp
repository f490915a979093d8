// Causal op tracing over live RGB runs: dissemination / join-to-root /
// detection latency histograms, the view-change counter, the per-kind
// handler profile, and byte-identity of the whole observability surface
// across replays.
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "obs/obs.hpp"
#include "rgb/mobile_host.hpp"
#include "test_util.hpp"

namespace rgb::obs {
namespace {

using rgb::testing::RgbSystemTest;

class TraceTest : public RgbSystemTest {};
class ProfilerTest : public RgbSystemTest {};

TEST_F(TraceTest, FaultFreeJoinsFillDisseminationAndJoinHistograms) {
  auto& sys = build(2, 3);
  sys.start_probing();
  constexpr std::uint64_t kMembers = 12;
  for (std::uint64_t i = 1; i <= kMembers; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(3000);
  ASSERT_TRUE(sys.membership_converged());

  const OpTracer& tracer = sys.obs().tracer;
  // Every join became visible at tier 0 exactly once (uid-deduped across
  // the tier-0 ring members).
  EXPECT_EQ(tracer.join_latency().count(), kMembers);
  EXPECT_GT(tracer.join_latency().p50(), 0.0);
  // Dissemination latency: one sample per (op, applying NE); with 13 NEs
  // there are far more applies than ops.
  const common::Histogram member_ops = tracer.merged_member_dissemination();
  EXPECT_GT(member_ops.count(), kMembers);
  EXPECT_GT(member_ops.max(), 0.0);
  EXPECT_LE(member_ops.max(), 3'000'000.0);  // bounded by the run horizon
  // Join latency is an apply at tier 0, so it is also a dissemination
  // sample; the root cannot see a join before some NE applied it.
  EXPECT_LE(tracer.join_latency().p50(), member_ops.max());
  // No faults: the ring shape never changed.
  EXPECT_EQ(tracer.view_changes().value(), 0u);
  EXPECT_EQ(tracer.member_detection().count(), 0u);
  EXPECT_EQ(tracer.ne_detection().count(), 0u);
}

TEST_F(TraceTest, NeCrashFeedsDetectionHistogramsAndViewChanges) {
  core::RgbConfig config;
  config.probe_period = sim::msec(100);
  auto& sys = build(2, 3, config);
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 9; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(1000);

  const common::NodeId victim = sys.aps()[0];
  sys.crash_ne(victim);
  // Fresh ops keep tokens circulating so the retx path hits the crash.
  sys.join(common::Guid{50}, sys.aps()[1]);
  run_for_ms(5000);

  const OpTracer& tracer = sys.obs().tracer;
  // The ring spliced the crashed NE out: detection latency measured from
  // the crash tick (Network::crashed_since), shape changed at the
  // survivors.
  EXPECT_GE(tracer.ne_detection().count(), 1u);
  EXPECT_GT(tracer.ne_detection().max(), 0.0);
  EXPECT_GT(tracer.view_changes().value(), 0u);
  // Members stranded at the crashed AP were declared failed with a
  // crash-anchored latency.
  EXPECT_GE(tracer.member_detection().count(), 1u);
  // The flight recorder saw the repair.
  const std::string tail = sys.obs().tracer.flight_tail();
  EXPECT_NE(tail.find("repair"), std::string::npos) << tail;
  EXPECT_NE(tail.find("detect_ne_fail"), std::string::npos) << tail;
}

TEST_F(TraceTest, SilentMemberSweepMeasuresSilenceLatency) {
  core::RgbConfig config;
  config.probe_period = sim::msec(100);
  config.mh_failure_timeout = sim::msec(500);
  auto& sys = build(1, 3, config);
  sys.start_probing();
  core::MobileHost mh{common::NodeId{900001}, common::Guid{7},
                      common::GroupId{1}, network_, sim::msec(100)};
  mh.join_via(sys.aps()[0]);
  run_for_ms(1000);
  mh.fail();  // goes silent; the AP-side sweep must notice
  run_for_ms(3000);

  const OpTracer& tracer = sys.obs().tracer;
  ASSERT_EQ(tracer.member_detection().count(), 1u);
  // Latency is now - last heartbeat: at least the configured timeout,
  // bounded by timeout + sweep granularity.
  EXPECT_GE(tracer.member_detection().max(), 500'000.0);
  EXPECT_LE(tracer.member_detection().max(), 1'500'000.0);
}

/// The handler profile counts every delivery by message kind with spans off
/// (the default), and the per-kind counts sum to the total.
TEST_F(ProfilerTest, CountsDeliveriesPerKindUnderRealTraffic) {
  auto& sys = build(2, 3);
  ASSERT_FALSE(sys.obs().tracer.spans_enabled());  // default-off spans
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 12; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(2000);

  const OpTracer& prof = sys.obs().tracer;
  EXPECT_GT(prof.handled_total(), 0u);
  std::uint64_t sum = 0;
  std::size_t kinds_seen = 0;
  for (const std::uint64_t n : prof.handled_per_kind()) {
    sum += n;
    kinds_seen += n != 0;
  }
  EXPECT_EQ(sum, prof.handled_total());
  EXPECT_GT(kinds_seen, 3u);  // probes, tokens, view sync, ...
}

/// The whole observability surface — every counter, read through the
/// metric structs' field lists, the tracer's histogram digests and the
/// flight-recorder dump — is a pure function of the (config, workload,
/// seed) triple.
TEST(TraceDeterminism, ObservabilityOutputIsByteIdenticalAcrossRuns) {
  const auto run_once = []() {
    sim::Simulator simulator;
    net::Network network{simulator, common::RngStream{42}};
    core::RgbConfig config;
    config.probe_period = sim::msec(100);
    core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
    sys.start_probing();
    for (std::uint64_t i = 1; i <= 10; ++i) {
      sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
    }
    simulator.run_until(sim::sec(1));
    sys.crash_ne(sys.aps()[0]);
    simulator.run_until(sim::sec(5));
    std::ostringstream out;
    for (const auto& field : core::kRgbMetricFields) {
      out << field.name << ' ' << (sys.metrics().*field.member).value() << '\n';
    }
    for (const auto& field : net::kNetMetricFields) {
      out << field.name << ' ' << network.metrics().*field.member << '\n';
    }
    const OpTracer& tracer = sys.obs().tracer;
    out << "obs.view_changes " << tracer.view_changes().value() << '\n';
    const auto digest = [&out](const std::string& name,
                               const common::Histogram& h) {
      out << name << std::setprecision(17) << ' ' << h.count() << ' '
          << h.p50() << ' ' << h.p90() << ' ' << h.p99() << ' ' << h.p999()
          << ' ' << h.max() << ' ' << h.mean() << '\n';
    };
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      digest("dissemination." + std::to_string(k),
             tracer.dissemination(static_cast<core::OpKind>(k)));
    }
    digest("join_to_root", tracer.join_latency());
    digest("detect.member", tracer.member_detection());
    digest("detect.ne", tracer.ne_detection());
    out << tracer.flight_tail();
    return out.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("rgb.rounds_started"), std::string::npos);
  EXPECT_NE(first.find("net.bytes_sent"), std::string::npos);
}

}  // namespace
}  // namespace rgb::obs
