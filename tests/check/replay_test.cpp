// Schedule-replay determinism: the same (config, schedule, seed) must
// produce a byte-identical violation report on every replay, and running
// schedule-driven trials through the experiment harness must aggregate —
// violation report included — byte-identically on 1 and 8 worker threads.
#include <gtest/gtest.h>

#include <sstream>

#include "check/check.hpp"
#include "exp/exp.hpp"
#include "rgb/rgb.hpp"

namespace rgb::check {
namespace {

AdversarialConfig small_config() {
  AdversarialConfig cfg;
  cfg.protocol = Protocol::kRgb;
  cfg.tiers = 2;
  cfg.ring_size = 3;
  cfg.initial_members = 8;
  cfg.settle = sim::sec(10);
  cfg.gen.events = 8;
  cfg.gen.window = sim::sec(5);
  return cfg;
}

/// The partitions+handoffs profile that violated from PR 2 through PR 4
/// (~25/60 seeds; seed 2 was the pinned deterministic repro). The
/// post-heal reconciliation round — claim-epoch ordering plus the
/// kReconcile re-anchoring exchange — closed the gap: the same profile now
/// asserts *convergence*, and the `--partitions 1` sweep is a CI gate
/// (a cell of ci/fuzz_matrix.sh, seeds 1-100).
AdversarialConfig partition_profile() {
  AdversarialConfig cfg = small_config();
  cfg.gen.crashes = false;
  cfg.gen.drop_bursts = false;
  cfg.gen.handoffs = true;
  cfg.gen.partitions = true;
  cfg.settle = sim::sec(20);
  cfg.gen.window = sim::sec(10);
  cfg.gen.events = 10;
  return cfg;
}

/// Seed 2 pinned the violating repro of partition_profile() from PR 3 to
/// PR 4; it must converge deterministically now.
constexpr std::uint64_t kFormerViolatingSeed = 2;

/// RGB is not held to convergence across an *unhealed* partition: the
/// generator always heals before quiescence and minimize never strips a
/// heal, so a split left open through settle is the stable violating
/// fixture the determinism tests need — identical non-empty reports, not
/// just identical "OK". The handoffs give the minimizer events it can
/// actually drop.
FaultSchedule unhealed_partition_schedule() {
  return parse_schedule(
      "schedule unhealed-partition\n"
      "at 1s partition ne 0 1\n"
      "at 1500ms handoff mh 1 ap 4\n"
      "at 2s handoff mh 2 ap 1\n"
      "at 3s join mh 9 ap 2\n");
}

TEST(ScheduleReplay, SameSeedAndScheduleGiveIdenticalResults) {
  const AdversarialConfig cfg = small_config();
  const FaultSchedule schedule = random_schedule_for(cfg, 7);
  const CheckRunResult a = run_schedule(cfg, schedule, 7);
  const CheckRunResult b = run_schedule(cfg, schedule, 7);
  EXPECT_EQ(a.report.format(), b.report.format());
  EXPECT_EQ(a.events_applied, b.events_applied);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

TEST(ScheduleReplay, FormerlyViolatingPartitionSeedNowConverges) {
  // The acceptance pin of the reconciliation round: the profile and seed
  // that deterministically violated through PR 4 converge now, and the
  // converging replay is itself deterministic.
  const AdversarialConfig cfg = partition_profile();
  const FaultSchedule schedule =
      random_schedule_for(cfg, kFormerViolatingSeed);
  const CheckRunResult a = run_schedule(cfg, schedule, kFormerViolatingSeed);
  EXPECT_TRUE(a.passed()) << a.report.format();
  const CheckRunResult b = run_schedule(cfg, schedule, kFormerViolatingSeed);
  EXPECT_EQ(a.report.format(), b.report.format());
  EXPECT_EQ(a.events_applied, b.events_applied);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

TEST(ScheduleReplay, ViolationReportReplaysByteIdentically) {
  const AdversarialConfig cfg = partition_profile();
  const FaultSchedule schedule = unhealed_partition_schedule();
  const CheckRunResult a = run_schedule(cfg, schedule, 3);
  ASSERT_FALSE(a.passed())
      << "an unhealed partition must violate convergence";
  const CheckRunResult b = run_schedule(cfg, schedule, 3);
  EXPECT_EQ(a.report.format(), b.report.format());
  EXPECT_GT(a.report.size(), 0u);
}

TEST(ScheduleReplay, MinimizedScheduleStillViolatesAndIsDeterministic) {
  const AdversarialConfig cfg = partition_profile();
  const FaultSchedule schedule = unhealed_partition_schedule();
  std::uint64_t runs_a = 0, runs_b = 0;
  const FaultSchedule min_a = minimize(cfg, schedule, 3, &runs_a);
  const FaultSchedule min_b = minimize(cfg, schedule, 3, &runs_b);
  EXPECT_EQ(min_a, min_b);
  EXPECT_EQ(runs_a, runs_b);
  EXPECT_LE(min_a.events.size(), schedule.events.size());
  // The minimized schedule reproduces the violation...
  EXPECT_FALSE(run_schedule(cfg, min_a, 3).passed());
  // ...and round-trips through the text format into the same repro.
  const FaultSchedule reparsed = parse_schedule(min_a.serialize());
  EXPECT_FALSE(run_schedule(cfg, reparsed, 3).passed());
}

/// The formerly-violating seeds of the full fuzz profile (crashes + bursts
/// + handoffs + partitions), re-minimized by rgb_fuzz into their smallest
/// still-violating schedules at the time, pinned here as *converging*
/// repros. Two distinct failure classes are covered:
///  * seeds 34/33-style — a cross-partition splice emits a false
///    Member-Failure for a member that concurrently handed off inside the
///    other fragment; after heal the stale host re-anchored it with a
///    fresh seq and the fragment's handoff op lost forever (fixed by
///    claim-epoch ordering + the reconcile round);
///  * seeds 5/30/58-style — a post-heal orphan believes a leader that
///    repaired it out of its ring long ago; merge offers died at the
///    relay and the rosters never reconverged (fixed by the direct
///    merge-accept reply).
struct PinnedRepro {
  std::uint64_t seed;
  const char* schedule;
};

class FormerPartitionRepros : public ::testing::TestWithParam<PinnedRepro> {};

TEST_P(FormerPartitionRepros, MinimizedScheduleConverges) {
  AdversarialConfig cfg;  // the rgb_fuzz default shape (tiers 2, ring 3)
  const FaultSchedule schedule = parse_schedule(GetParam().schedule);
  const CheckRunResult result = run_schedule(cfg, schedule, GetParam().seed);
  EXPECT_TRUE(result.passed())
      << "seed " << GetParam().seed << ":\n" << result.report.format();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FormerPartitionRepros,
    ::testing::Values(
        PinnedRepro{5,
                    "schedule rand-5-min\n"
                    "at 523477us partition ne 2 2\n"
                    "at 9656026us partition ne 0 1\n"
                    "at 10100ms heal\n"},
        PinnedRepro{30,
                    "schedule rand-30-min\n"
                    "at 638521us partition ne 9 1\n"
                    "at 10100ms heal\n"},
        PinnedRepro{34,
                    "schedule rand-34-min\n"
                    "at 1118406us partition ne 9 2\n"
                    "at 9503807us handoff mh 8 ap 8\n"
                    "at 10100ms heal\n"},
        PinnedRepro{45,
                    "schedule rand-45-min\n"
                    "at 1421532us partition ne 4 1\n"
                    "at 6878857us handoff mh 2 ap 4\n"
                    "at 7344081us partition ne 6 2\n"
                    "at 10100ms heal\n"},
        PinnedRepro{58,
                    "schedule rand-58-min\n"
                    "at 496641us partition ne 0 1\n"
                    "at 9698148us partition ne 1 1\n"
                    "at 10100ms heal\n"}));

/// The AP-side crash zombie of the 100-member churn profile
/// (`rgb_fuzz --members 100 --churn 1`), minimized by rgb_fuzz, pinned as
/// converging repros. A member stranded at a crashed AP re-joins at
/// another AP of the same ring, under a new epoch, and fails there; both
/// ops wait in that AP's queue behind a dead ring leader. While the queue
/// cancelled a join and a following departure outright, nothing ever
/// ended the stranded epoch: its AP recovered still claiming the member,
/// and anti-entropy copied the Operational record to every NE. The
/// departure now absorbs the join and still propagates.
class FormerApCrashZombieRepros
    : public ::testing::TestWithParam<PinnedRepro> {};

TEST_P(FormerApCrashZombieRepros, MinimizedScheduleConverges) {
  AdversarialConfig cfg;  // the rgb_fuzz default shape (tiers 2, ring 3)
  cfg.initial_members = 100;
  const FaultSchedule schedule = parse_schedule(GetParam().schedule);
  const CheckRunResult result = run_schedule(cfg, schedule, GetParam().seed);
  EXPECT_TRUE(result.passed())
      << "seed " << GetParam().seed << ":\n" << result.report.format();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FormerApCrashZombieRepros,
    ::testing::Values(
        PinnedRepro{20,
                    "schedule rand-20-min\n"
                    "at 1998732us crash ne 3\n"
                    "at 6527273us crash ne 6\n"
                    "at 7281502us churn 0.0246 2906431us\n"
                    "at 8010351us recover ne 6\n"},
        PinnedRepro{35,
                    "schedule rand-35-min\n"
                    "at 4391349us churn 0.02219571898665312 2771340us\n"
                    "at 5327158us crash ne 9\n"
                    "at 5723838us crash ne 10\n"
                    "at 7011319us recover ne 10\n"}));

TEST(ScheduleReplay, MinimizeReturnsPassingScheduleUnchanged) {
  const AdversarialConfig cfg = small_config();
  const FaultSchedule schedule = random_schedule_for(cfg, 7);
  ASSERT_TRUE(run_schedule(cfg, schedule, 7).passed());
  EXPECT_EQ(minimize(cfg, schedule, 7), schedule);
}

/// The satellite contract: same seed+schedule ⇒ identical report at 1 and
/// 8 exp-runner threads, exercised through the real TrialRunner +
/// CheckObserver plumbing with a violating cell in the mix (mode 2) and
/// the formerly-violating partition seed now converging (mode 1).
TEST(ScheduleReplay, HarnessReportIdenticalAcrossThreadCounts) {
  exp::Scenario scenario;
  scenario.id = "replay.determinism";
  scenario.title = "schedule replay under the runner";
  scenario.paper_ref = "test";
  scenario.metrics = {"violations", "events"};
  scenario.cells.push_back(exp::ParamSet{{"mode", 0.0}});
  scenario.cells.push_back(exp::ParamSet{{"mode", 1.0}});
  scenario.cells.push_back(exp::ParamSet{{"mode", 2.0}});
  scenario.trials_per_cell = 3;
  scenario.check_mask = exp::kCheckAll;
  scenario.run = [](const exp::TrialContext& ctx) -> std::vector<double> {
    const int mode = ctx.params.get_int("mode");
    AdversarialConfig cfg = mode != 0 ? partition_profile() : small_config();
    // Shrink the profiles: this test needs determinism, not depth.
    cfg.settle = sim::sec(8);
    auto chk = exp::begin_check(ctx);
    // Mode 1 pins the formerly-violating partition seed (it converges but
    // must do so identically on every thread count); mode 2 is the
    // deliberately-violating unhealed split; mode 0 a passing random run.
    const std::uint64_t seed = mode == 1 ? kFormerViolatingSeed : ctx.seed;
    const FaultSchedule schedule = mode == 2
                                       ? unhealed_partition_schedule()
                                       : random_schedule_for(cfg, seed);
    const CheckRunResult result = run_schedule(
        cfg, schedule, seed, chk.get(), ctx.cell_index, ctx.trial_index);
    return {double(result.report.size()), double(result.events_applied)};
  };

  const auto run_with = [&](unsigned threads) {
    CheckObserver observer{scenario.check_mask};
    exp::RunnerOptions options;
    options.threads = threads;
    options.base_seed = 99;
    options.observer = &observer;
    const exp::TrialRunner runner{options};
    const exp::RunResult result = runner.run(scenario);
    std::ostringstream csv;
    exp::write_csv(result, csv);
    return std::make_pair(csv.str(), observer.report().format());
  };

  const auto [csv1, report1] = run_with(1);
  const auto [csv8, report8] = run_with(8);
  EXPECT_EQ(csv1, csv8);
  EXPECT_EQ(report1, report8);
  // The acceptance pin rides along: the formerly-violating partition seed
  // (cell 1) must actually CONVERGE on both thread counts, while the
  // deliberately-unhealed cell 2 must report violations — byte-identity
  // alone would also hold for two identically-wrong runs.
  EXPECT_EQ(report1.find("[cell 1"), std::string::npos) << report1;
  EXPECT_NE(report1.find("[cell 2"), std::string::npos) << report1;
}

TEST(ScheduleDriverTest, SkipsImpossibleMemberActions) {
  // A handoff to a crashed AP and ops on dead members must be skipped by
  // the driver — neither the service nor ground truth may record them.
  common::RngStream rng{3};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{1, 3}};
  GroundTruth truth;
  sys.join(common::Guid{1}, sys.aps()[0]);
  truth.join(common::Guid{1}, sys.aps()[0]);

  ScheduleDriver driver{simulator, network, sys, truth,
                        Topology{sys.all_nes(), sys.aps()}};
  FaultSchedule schedule = parse_schedule(
      "at 1ms crash ne 1\n"
      "at 2ms handoff mh 1 ap 1\n"   // target just crashed: skipped
      "at 3ms leave mh 9\n"          // unknown member: skipped
      "at 4ms handoff mh 1 ap 2\n"); // valid
  driver.arm(schedule);
  simulator.run();

  EXPECT_EQ(driver.events_applied(), 2u);  // the crash + the valid handoff
  EXPECT_EQ(truth.ap_of(common::Guid{1}), sys.aps()[2]);
}

TEST(ScheduleDriverTest, ApCrashStrandsMembersIntoUncertainty) {
  common::RngStream rng{3};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  core::RgbSystem sys{network, core::RgbConfig{},
                      core::HierarchyLayout{1, 3}};
  GroundTruth truth;
  sys.join(common::Guid{1}, sys.aps()[0]);
  truth.join(common::Guid{1}, sys.aps()[0]);
  sys.join(common::Guid{2}, sys.aps()[1]);
  truth.join(common::Guid{2}, sys.aps()[1]);

  ScheduleDriver driver{simulator, network, sys, truth,
                        Topology{sys.all_nes(), sys.aps()}};
  driver.arm(parse_schedule("at 1ms crash ne 0\n"));
  simulator.run();

  EXPECT_FALSE(truth.is_live(common::Guid{1}));
  EXPECT_TRUE(truth.is_live(common::Guid{2}));
  EXPECT_EQ(truth.uncertain(), std::vector<common::Guid>{common::Guid{1}});
}

}  // namespace
}  // namespace rgb::check
