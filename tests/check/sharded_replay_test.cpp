// Shard-axis determinism for conformance runs: the same (config, schedule,
// seed) must produce byte-identical reports for every shard worker count
// (1, 2, 8), alone and through the experiment harness at 1 and 8 trial
// threads — including a crash+partition+handoff schedule that forces
// cross-shard outbox handoff and post-heal reconciliation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "exp/exp.hpp"

namespace rgb::check {
namespace {

AdversarialConfig sharded_config(unsigned shard_workers) {
  AdversarialConfig cfg;
  cfg.protocol = Protocol::kRgb;
  cfg.tiers = 2;
  cfg.ring_size = 3;  // 3 logical shards, one per tier-0 region
  cfg.initial_members = 8;
  cfg.settle = sim::sec(10);
  cfg.shard_workers = shard_workers;
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

TEST(ShardedReplay, CrossShardScheduleIdenticalAcrossWorkerCounts) {
  const FaultSchedule schedule = cross_shard_schedule();
  const RunDigest one = digest(sharded_config(1), schedule, 11);
  EXPECT_TRUE(one.passed) << one.report;
  EXPECT_EQ(digest(sharded_config(2), schedule, 11), one);
  EXPECT_EQ(digest(sharded_config(8), schedule, 11), one);
}

TEST(ShardedReplay, RandomSchedulesIdenticalAcrossWorkerCounts) {
  // Random full-profile schedules (crashes + bursts + handoffs +
  // partitions), a few seeds deep: the sharded trajectory may differ from
  // serial (striped RNG) but never across worker counts.
  AdversarialConfig gen_cfg = sharded_config(1);
  gen_cfg.gen.partitions = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const FaultSchedule schedule = random_schedule_for(gen_cfg, seed);
    AdversarialConfig cfg = gen_cfg;
    const RunDigest one = digest(cfg, schedule, seed);
    cfg.shard_workers = 2;
    EXPECT_EQ(digest(cfg, schedule, seed), one) << "seed " << seed;
    cfg.shard_workers = 8;
    EXPECT_EQ(digest(cfg, schedule, seed), one) << "seed " << seed;
  }
}

TEST(ShardedReplay, ChurnWithStabilityIdenticalAcrossWorkerCounts) {
  // The stability layer's alert/cut machinery plus sustained churn windows:
  // alert timers, batched cuts and the churn expansion must all stay on the
  // deterministic sharded path.
  AdversarialConfig gen_cfg = sharded_config(1);
  gen_cfg.stability = true;
  gen_cfg.gen.churn = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const FaultSchedule schedule = random_schedule_for(gen_cfg, seed);
    AdversarialConfig cfg = gen_cfg;
    const RunDigest one = digest(cfg, schedule, seed);
    cfg.shard_workers = 2;
    EXPECT_EQ(digest(cfg, schedule, seed), one) << "seed " << seed;
    cfg.shard_workers = 8;
    EXPECT_EQ(digest(cfg, schedule, seed), one) << "seed " << seed;
  }
}

TEST(ShardedReplay, RetxAlertThatCompletesACutKeepsTheHopAlive) {
  // The `rgb_fuzz --churn 1 --stability 1 --shard-workers 1` profile at
  // seed 40: a token hop's retx alert completes a stability cut at the
  // aggregating leader, and the cut reroutes and erases the very hop being
  // retransmitted. This used to read the freed hop and crash.
  AdversarialConfig cfg;
  cfg.gen.churn = true;
  cfg.stability = true;
  cfg.shard_workers = 1;
  const CheckRunResult result =
      run_schedule(cfg, random_schedule_for(cfg, 40), 40);
  EXPECT_TRUE(result.passed()) << result.report.format();
}

TEST(ShardedReplay, ViolatingRunReportsIdenticallyAcrossWorkerCounts) {
  // An unhealed split violates convergence by design; the violation report
  // (message counts, sampled timestamps, flight tail) must not depend on
  // the worker count either.
  const FaultSchedule schedule = parse_schedule(
      "schedule unhealed\n"
      "at 1s partition ne 0 1\n"
      "at 2s handoff mh 1 ap 7\n");
  const RunDigest one = digest(sharded_config(1), schedule, 4);
  ASSERT_FALSE(one.passed);
  EXPECT_GT(one.report.size(), 0u);
  EXPECT_EQ(digest(sharded_config(2), schedule, 4), one);
  EXPECT_EQ(digest(sharded_config(8), schedule, 4), one);
}

TEST(ShardedReplay, HarnessOutputIdenticalAcrossShardAndThreadCounts) {
  // The full grid: {1, 2, 8} shard workers x {1, 8} exp-runner threads,
  // driven through the real TrialRunner + CheckObserver plumbing. All six
  // (CSV, check report) pairs must be byte-identical.
  const auto scenario_for = [](unsigned shard_workers) {
    exp::Scenario scenario;
    scenario.id = "replay.sharded";
    scenario.title = "sharded schedule replay under the runner";
    scenario.paper_ref = "test";
    scenario.metrics = {"violations", "events", "msgs"};
    scenario.cells.push_back(exp::ParamSet{{"mode", 0.0}});
    scenario.cells.push_back(exp::ParamSet{{"mode", 1.0}});
    scenario.trials_per_cell = 2;
    scenario.check_mask = exp::kCheckAll;
    scenario.run =
        [shard_workers](const exp::TrialContext& ctx) -> std::vector<double> {
      AdversarialConfig cfg = sharded_config(shard_workers);
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
  };

  const auto run_grid = [&](unsigned shard_workers, unsigned threads) {
    CheckObserver observer{exp::kCheckAll};
    exp::RunnerOptions options;
    options.threads = threads;
    options.base_seed = 99;
    options.observer = &observer;
    const exp::TrialRunner runner{options};
    const exp::RunResult result = runner.run(scenario_for(shard_workers));
    std::ostringstream csv;
    exp::write_csv(result, csv);
    return csv.str() + "\n===\n" + observer.report().format();
  };

  const std::string baseline = run_grid(1, 1);
  for (const unsigned shard_workers : {1u, 2u, 8u}) {
    for (const unsigned threads : {1u, 8u}) {
      if (shard_workers == 1 && threads == 1) continue;
      EXPECT_EQ(run_grid(shard_workers, threads), baseline)
          << "shard_workers=" << shard_workers << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace rgb::check
