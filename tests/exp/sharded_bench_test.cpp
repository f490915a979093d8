// Shard-axis determinism for the scale bench: the deterministic
// (timed=false) BENCH json artifact must be byte-identical for every shard
// worker count — the trajectory is a function of the logical shard count
// (ring_size), never of the execution parallelism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/bench.hpp"

namespace rgb::exp {
namespace {

ScaleConfig small_base(unsigned shard_workers) {
  ScaleConfig base;
  base.tiers = 2;
  base.ring_size = 3;
  base.warmup_ticks = 4;
  base.steady_ticks = 4;
  base.shard_workers = shard_workers;
  return base;
}

std::string bench_json(unsigned shard_workers) {
  std::ostringstream log, json;
  SweepModes modes;
  modes.snapshot = true;
  const auto stats = run_scale_sweep(small_base(shard_workers), {300}, modes,
                                     log, /*timed=*/false);
  EXPECT_TRUE(all_converged(stats));
  write_bench_json(small_base(shard_workers), stats, json);
  return json.str();
}

TEST(ShardedBench, ArtifactByteIdenticalAcrossWorkerCounts) {
  const std::string one = bench_json(1);
  EXPECT_NE(one.find("\"sharded\": true"), std::string::npos);
  EXPECT_EQ(bench_json(2), one);
  EXPECT_EQ(bench_json(8), one);
}

TEST(ShardedBench, ShardedTrialConvergesWithZeroDivergence) {
  ScaleConfig config = small_base(2);
  config.members = 300;
  const ScaleStats stats = run_scale_trial(config, /*timed=*/false);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.join_divergence, 0u);
  // The designated-stripe dedup rule: exactly one join-latency sample per
  // member, no matter how many shards observed the join at the root.
  EXPECT_EQ(stats.join_latency.count, config.members);
}

}  // namespace
}  // namespace rgb::exp
