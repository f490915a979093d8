// Flight recorder + series sampler unit tests: the tracer's flight events
// read back oldest-to-newest with honest drop accounting, the tail format
// is deterministic, and the sampler keeps its fixed-cadence / fixed-count
// contract.
#include <gtest/gtest.h>

#include <string>

#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace rgb::obs {
namespace {

TEST(OpTracerFlight, RecordsInOrderBelowCapacity) {
  OpTracer tracer;
  tracer.record(10, common::NodeId{1}, FlightKind::kRoundStarted, 100, 2);
  tracer.record(20, common::NodeId{2}, FlightKind::kRoundCompleted, 100, 2);
  const auto events = tracer.flight_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(tracer.flight_counts().dropped, 0u);
  EXPECT_EQ(events[0].at, 10u);
  EXPECT_EQ(events[0].kind, FlightKind::kRoundStarted);
  EXPECT_EQ(events[1].at, 20u);
  EXPECT_EQ(events[1].ne, common::NodeId{2});
}

TEST(OpTracerFlight, TailIsDeterministicAndHonest) {
  // Two more events than the ring holds: the two oldest are overwritten.
  constexpr std::uint64_t kEvents = OpTracer::kFlightCapacity + 2;
  OpTracer tracer;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    tracer.record(i * 1000, common::NodeId{3}, FlightKind::kTokenRetx, 7, i);
  }
  EXPECT_EQ(tracer.flight_counts().recorded, kEvents);
  EXPECT_EQ(tracer.flight_counts().dropped, 2u);
  const std::string once = tracer.flight_tail(2);
  const std::string twice = tracer.flight_tail(2);
  EXPECT_EQ(once, twice);
  // Header reports shown-vs-lifetime truncation (overwritten events
  // included); lines carry the decoded operand names.
  EXPECT_NE(once.find("token_retx"), std::string::npos) << once;
  EXPECT_NE(once.find("round=7"), std::string::npos) << once;
  EXPECT_EQ(once,
            "flight recorder: last 2 of 4098 event(s) (4096 earlier not "
            "shown)\n"
            "  t=4096000us ne=3 token_retx round=7 retx=4096\n"
            "  t=4097000us ne=3 token_retx round=7 retx=4097\n");
}

TEST(SeriesSampler, SamplesAtFixedCadenceWithoutKeepingTheRunAlive) {
  sim::Simulator simulator;
  std::uint64_t probes = 0;
  SeriesSampler sampler([&](sim::Time at, bool with_divergence) {
    ++probes;
    SeriesPoint p;
    p.at = at;
    p.events = probes;
    if (with_divergence) p.divergence = 5;
    return p;
  });
  sampler.arm(simulator, 0, 100, 5, /*with_divergence=*/false);
  simulator.run();  // drains: the batch is finite by construction
  ASSERT_EQ(sampler.points().size(), 5u);
  EXPECT_EQ(probes, 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sampler.points()[i].at, (i + 1) * 100);
    EXPECT_EQ(sampler.points()[i].divergence, -1);
  }
}

TEST(SeriesSampler, DivergenceFlagReachesTheProbe) {
  sim::Simulator simulator;
  SeriesSampler sampler([](sim::Time at, bool with_divergence) {
    SeriesPoint p;
    p.at = at;
    p.divergence = with_divergence ? 7 : -1;
    return p;
  });
  sampler.arm(simulator, 0, 50, 2, /*with_divergence=*/true);
  simulator.run();
  ASSERT_EQ(sampler.points().size(), 2u);
  EXPECT_EQ(sampler.points()[0].divergence, 7);
}

TEST(SeriesSampler, CapacityBoundsRetainedPoints) {
  sim::Simulator simulator;
  SeriesSampler sampler(
      [](sim::Time at, bool) {
        SeriesPoint p;
        p.at = at;
        return p;
      },
      /*capacity=*/3);
  sampler.arm(simulator, 0, 10, 8, false);
  simulator.run();
  EXPECT_EQ(sampler.points().size(), 3u);
  EXPECT_EQ(sampler.dropped(), 5u);
}

}  // namespace
}  // namespace rgb::obs
