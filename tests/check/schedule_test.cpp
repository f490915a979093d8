// Fault-schedule format and generator tests: parse/serialize round-trips,
// validation errors, and determinism of seeded generation.
#include "check/schedule.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rgb::check {
namespace {

TEST(ScheduleFormat, SerializeParseRoundTrips) {
  FaultSchedule schedule;
  schedule.id = "demo";
  schedule.events = {
      {sim::msec(500), FaultAction::kCrash, 7, 0, 0.0, 0},
      {sim::msec(1200), FaultAction::kRecover, 7, 0, 0.0, 0},
      {sim::sec(2), FaultAction::kPartition, 3, 1, 0.0, 0},
      {sim::sec(4), FaultAction::kHeal, 0, 0, 0.0, 0},
      {sim::sec(5), FaultAction::kDropBurst, 0, 0, 0.25, sim::msec(800)},
      {sim::sec(6), FaultAction::kHandoff, 4, 2, 0.0, 0},
      {sim::sec(7), FaultAction::kJoin, 9, 1, 0.0, 0},
      {sim::sec(8), FaultAction::kLeave, 4, 0, 0.0, 0},
      {sim::usec(9000001), FaultAction::kFail, 9, 0, 0.0, 0},
      {sim::sec(10), FaultAction::kChurn, 0, 0, 0.01, sim::sec(2)},
  };
  const std::string text = schedule.serialize();
  const FaultSchedule parsed = parse_schedule(text);
  EXPECT_EQ(parsed, schedule);
  // And the round-trip is a fixpoint at the text level too.
  EXPECT_EQ(parsed.serialize(), text);
}

TEST(ScheduleFormat, ParsesCommentsBlanksAndUnits) {
  const FaultSchedule parsed = parse_schedule(
      "# full-line comment\n"
      "schedule demo\n"
      "\n"
      "at 250us crash ne 0   # trailing comment\n"
      "at 3ms recover ne 0\n"
      "at 1s heal\n");
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.id, "demo");
  EXPECT_EQ(parsed.events[0].at, sim::usec(250));
  EXPECT_EQ(parsed.events[1].at, sim::msec(3));
  EXPECT_EQ(parsed.events[2].at, sim::sec(1));
}

TEST(ScheduleFormat, NormalizeSortsByTime) {
  FaultSchedule schedule;
  schedule.events = {
      {sim::sec(5), FaultAction::kHeal, 0, 0, 0.0, 0},
      {sim::sec(1), FaultAction::kCrash, 1, 0, 0.0, 0},
  };
  schedule.normalize();
  EXPECT_EQ(schedule.events[0].at, sim::sec(1));
}

TEST(ScheduleFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_schedule("at nonsense crash ne 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_schedule("at 1s explode ne 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("at 1s crash mh 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("at 1s crash ne\n"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("at 1s dropburst 1.5 100ms\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_schedule("at 1s churn 2.0 1s\n"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("crash ne 1\n"), std::invalid_argument);
  // Numbers are decimal digits within range: no sign, no saturation, and
  // no time whose unit scaling wraps past the end of sim::Time.
  EXPECT_THROW(parse_schedule("at 18446744073710s heal\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_schedule("at 1s crash ne 99999999999999999999\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_schedule("at 1s crash ne +5\n"), std::invalid_argument);
}

TEST(ScheduleGenerator, IsAPureFunctionOfConfigAndSeed) {
  ScheduleGenConfig config;
  config.events = 12;
  config.ne_count = 12;
  config.ap_count = 9;
  config.max_guid = 8;
  config.partitions = true;
  const FaultSchedule a = random_schedule(config, 42);
  const FaultSchedule b = random_schedule(config, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.serialize(), b.serialize());

  const FaultSchedule c = random_schedule(config, 43);
  EXPECT_NE(a, c);  // different seed, different schedule
}

TEST(ScheduleGenerator, RespectsFaultClassGates) {
  ScheduleGenConfig config;
  config.events = 30;
  config.ne_count = 12;
  config.ap_count = 9;
  config.max_guid = 8;
  config.crashes = false;
  config.partitions = false;
  config.drop_bursts = false;  // only handoffs allowed
  const FaultSchedule schedule = random_schedule(config, 7);
  ASSERT_FALSE(schedule.events.empty());
  for (const FaultEvent& event : schedule.events) {
    EXPECT_EQ(event.action, FaultAction::kHandoff) << event.to_line();
  }
}

TEST(ScheduleGenerator, PairsEveryCrashWithARecover) {
  ScheduleGenConfig config;
  config.events = 20;
  config.ne_count = 12;
  config.ap_count = 9;
  config.max_guid = 8;
  config.drop_bursts = false;
  config.handoffs = false;
  config.recover_all = true;
  const FaultSchedule schedule = random_schedule(config, 11);
  int crashes = 0, recovers = 0;
  for (const FaultEvent& event : schedule.events) {
    if (event.action == FaultAction::kCrash) ++crashes;
    if (event.action == FaultAction::kRecover) ++recovers;
  }
  EXPECT_GT(crashes, 0);
  EXPECT_EQ(crashes, recovers);
}

TEST(ScheduleGenerator, HealsAfterEveryPartitionRun) {
  ScheduleGenConfig config;
  config.events = 15;
  config.ne_count = 12;
  config.ap_count = 9;
  config.max_guid = 8;
  config.crashes = false;
  config.drop_bursts = false;
  config.handoffs = false;
  config.partitions = true;
  const FaultSchedule schedule = random_schedule(config, 3);
  bool saw_partition = false;
  for (const FaultEvent& event : schedule.events) {
    saw_partition |= event.action == FaultAction::kPartition;
  }
  ASSERT_TRUE(saw_partition);
  EXPECT_EQ(schedule.events.back().action, FaultAction::kHeal);
}

}  // namespace
}  // namespace rgb::check
