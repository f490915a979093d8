// Violation flight-recorder dump through the check layer: a forced oracle
// violation must produce a non-empty causal trace on the CheckRunResult,
// the trace must replay byte-identically, and passing runs must not pay
// for one.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "rgb/rgb.hpp"

namespace rgb::check {
namespace {

AdversarialConfig rgb_config() {
  AdversarialConfig cfg;
  cfg.protocol = Protocol::kRgb;
  cfg.tiers = 2;
  cfg.ring_size = 3;
  cfg.initial_members = 8;
  cfg.settle = sim::sec(10);
  return cfg;
}

/// A partition left open through settle: RGB is only held to convergence
/// across *healed* partitions, so this deterministically violates — the
/// stable forced-violation fixture.
FaultSchedule unhealed_partition() {
  return parse_schedule(
      "schedule obs-unhealed-partition\n"
      "at 1s partition ne 0 1\n"
      "at 2s handoff mh 2 ap 1\n");
}

TEST(ViolationFlightTrace, ForcedViolationDumpsNonEmptyTrace) {
  const AdversarialConfig cfg = rgb_config();
  const CheckRunResult result = run_schedule(cfg, unhealed_partition(), 3);
  ASSERT_FALSE(result.passed())
      << "an unhealed partition must violate convergence";
  ASSERT_FALSE(result.flight_trace.empty());
  // The dump is a real protocol trace: header plus causally relevant
  // events (op births at minimum; typically round/repair activity too).
  EXPECT_NE(result.flight_trace.find("flight recorder: last"),
            std::string::npos)
      << result.flight_trace;
  EXPECT_NE(result.flight_trace.find("ne="), std::string::npos);
}

TEST(ViolationFlightTrace, TraceReplaysByteIdentically) {
  const AdversarialConfig cfg = rgb_config();
  const FaultSchedule schedule = unhealed_partition();
  const CheckRunResult a = run_schedule(cfg, schedule, 3);
  const CheckRunResult b = run_schedule(cfg, schedule, 3);
  EXPECT_EQ(a.flight_trace, b.flight_trace);
  EXPECT_FALSE(a.flight_trace.empty());
}

TEST(ViolationFlightTrace, PassingRunsCarryNoTrace) {
  const AdversarialConfig cfg = rgb_config();
  // No faults at all: trivially passes, so no trace is materialized.
  const FaultSchedule quiet = parse_schedule(
      "schedule obs-quiet\n"
      "at 1s join mh 30 ap 0\n");
  const CheckRunResult result = run_schedule(cfg, quiet, 1);
  ASSERT_TRUE(result.passed()) << result.report.format();
  EXPECT_TRUE(result.flight_trace.empty());
}

/// Baseline protocols keep no recorder: a violating run still works, the
/// trace is just absent (SystemModel::flight() defaults to empty).
TEST(ViolationFlightTrace, RecorderlessProtocolsYieldEmptyTrace) {
  AdversarialConfig cfg = rgb_config();
  cfg.protocol = Protocol::kGossip;
  cfg.check_mask = exp::kCheckAll;
  const CheckRunResult result = run_schedule(cfg, unhealed_partition(), 3);
  EXPECT_TRUE(result.flight_trace.empty());
}

}  // namespace
}  // namespace rgb::check
