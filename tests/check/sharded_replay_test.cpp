// Determinism of sharded conformance runs: the same (config, schedule,
// seed) must produce byte-identical reports on every run, alone and
// through the experiment harness at 1 and 8 trial threads — including a
// crash+partition+handoff schedule that forces cross-shard outbox handoff
// and post-heal reconciliation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "exp/exp.hpp"

namespace rgb::check {
namespace {

AdversarialConfig sharded_config() {
  AdversarialConfig cfg;
  cfg.protocol = Protocol::kRgb;
  cfg.tiers = 2;
  cfg.ring_size = 3;  // 3 logical shards, one per tier-0 region
  cfg.initial_members = 8;
  cfg.settle = sim::sec(10);
  cfg.sharded = true;
  return cfg;
}

/// Crash + partition + cross-region handoff: member 1 starts on AP index 0
/// (region 0) and moves to AP index 7 (region 2), so the attachment record
/// and the notify/ack traffic must cross shard boundaries; the crash and
/// the partition exercise detection and post-heal reconciliation across
/// the same boundaries.
FaultSchedule cross_shard_schedule() {
  return parse_schedule(
      "schedule cross-shard\n"
      "at 1s crash ne 5\n"
      "at 2s partition ne 0 1\n"
      "at 3s handoff mh 1 ap 7\n"
      "at 4s recover ne 5\n"
      "at 5s heal\n");
}

struct RunDigest {
  std::string report;
  std::uint64_t events_applied;
  std::uint64_t messages_sent;
  bool passed;
  bool operator==(const RunDigest&) const = default;
};

RunDigest digest(const AdversarialConfig& cfg, const FaultSchedule& schedule,
                 std::uint64_t seed) {
  const CheckRunResult r = run_schedule(cfg, schedule, seed);
  return RunDigest{r.report.format(), r.events_applied, r.messages_sent,
                   r.passed()};
}

TEST(ShardedReplay, CrossShardScheduleRepeatsOnASecondRun) {
  const FaultSchedule schedule = cross_shard_schedule();
  const RunDigest first = digest(sharded_config(), schedule, 11);
  EXPECT_TRUE(first.passed) << first.report;
  EXPECT_EQ(digest(sharded_config(), schedule, 11), first);
  // The flag really selects the sharded kernel: its per-shard RNG streams
  // and epoch windows give a different trajectory from the serial run's.
  AdversarialConfig serial = sharded_config();
  serial.sharded = false;
  EXPECT_NE(digest(serial, schedule, 11), first);
}

TEST(ShardedReplay, RandomSchedulesRepeatOnASecondRun) {
  // Random full-profile schedules (crashes + bursts + handoffs +
  // partitions), a few seeds deep: the sharded trajectory may differ from
  // serial (per-shard RNG streams) but never from run to run.
  AdversarialConfig cfg = sharded_config();
  cfg.gen.partitions = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const FaultSchedule schedule = random_schedule_for(cfg, seed);
    const RunDigest first = digest(cfg, schedule, seed);
    EXPECT_EQ(digest(cfg, schedule, seed), first) << "seed " << seed;
  }
}

TEST(ShardedReplay, ChurnWithStabilityRepeatsOnASecondRun) {
  // The stability layer's alert/cut machinery plus sustained churn windows:
  // alert timers, batched cuts and the churn expansion must all stay on the
  // deterministic sharded path. Two sizes: 8 members, and 100 members with
  // every other mode on too (4 groups, snapshot joins, partitions).
  AdversarialConfig small = sharded_config();
  small.stability = true;
  small.gen.churn = true;
  AdversarialConfig large = small;
  large.initial_members = 100;
  large.groups = 4;
  large.snapshot_join = true;
  large.gen.partitions = true;
  for (const AdversarialConfig& cfg : {small, large}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const FaultSchedule schedule = random_schedule_for(cfg, seed);
      const RunDigest first = digest(cfg, schedule, seed);
      EXPECT_EQ(digest(cfg, schedule, seed), first)
          << cfg.initial_members << " members, seed " << seed;
    }
  }
}

TEST(ShardedReplay, RetxAlertThatCompletesACutKeepsTheHopAlive) {
  // The `rgb_fuzz --churn 1 --stability 1 --sharded 1` profile at seed
  // 40: a token hop's retx alert completes a stability cut at the
  // aggregating leader, and the cut reroutes and erases the very hop being
  // retransmitted. This used to read the freed hop and crash.
  AdversarialConfig cfg;
  cfg.gen.churn = true;
  cfg.stability = true;
  cfg.sharded = true;
  const CheckRunResult result =
      run_schedule(cfg, random_schedule_for(cfg, 40), 40);
  EXPECT_TRUE(result.passed()) << result.report.format();
}

TEST(ShardedReplay, ViolatingRunReportsIdenticallyOnASecondRun) {
  // An unhealed split violates convergence by design; the violation report
  // (message counts, sampled timestamps, flight tail) must repeat too.
  const FaultSchedule schedule = parse_schedule(
      "schedule unhealed\n"
      "at 1s partition ne 0 1\n"
      "at 2s handoff mh 1 ap 7\n");
  const RunDigest first = digest(sharded_config(), schedule, 4);
  ASSERT_FALSE(first.passed);
  EXPECT_GT(first.report.size(), 0u);
  EXPECT_EQ(digest(sharded_config(), schedule, 4), first);
}

TEST(ShardedReplay, HarnessOutputIdenticalAcrossThreadCounts) {
  // Sharded trials at 1 and 8 exp-runner threads, driven through the real
  // TrialRunner + CheckObserver plumbing: both (CSV, check report) pairs
  // must be byte-identical.
  const auto scenario = [] {
    exp::Scenario scenario;
    scenario.id = "replay.sharded";
    scenario.title = "sharded schedule replay under the runner";
    scenario.paper_ref = "test";
    scenario.metrics = {"violations", "events", "msgs"};
    scenario.cells.push_back(exp::ParamSet{{"mode", 0.0}});
    scenario.cells.push_back(exp::ParamSet{{"mode", 1.0}});
    scenario.trials_per_cell = 2;
    scenario.check_mask = exp::kCheckAll;
    scenario.run = [](const exp::TrialContext& ctx) -> std::vector<double> {
      AdversarialConfig cfg = sharded_config();
      cfg.settle = sim::sec(8);
      cfg.gen.partitions = ctx.params.get_int("mode") == 1;
      auto chk = exp::begin_check(ctx);
      const FaultSchedule schedule = random_schedule_for(cfg, ctx.seed);
      const CheckRunResult result = run_schedule(
          cfg, schedule, ctx.seed, chk.get(), ctx.cell_index,
          ctx.trial_index);
      return {double(result.report.size()), double(result.events_applied),
              double(result.messages_sent)};
    };
    return scenario;
  }();

  const auto run_on_threads = [&](unsigned threads) {
    CheckObserver observer{exp::kCheckAll};
    exp::RunnerOptions options;
    options.threads = threads;
    options.base_seed = 99;
    options.observer = &observer;
    const exp::TrialRunner runner{options};
    const exp::RunResult result = runner.run(scenario);
    std::ostringstream csv;
    exp::write_csv(result, csv);
    return csv.str() + "\n===\n" + observer.report().format();
  };

  EXPECT_EQ(run_on_threads(8), run_on_threads(1));
}

}  // namespace
}  // namespace rgb::check
