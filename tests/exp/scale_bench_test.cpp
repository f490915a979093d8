// The scale bench's trial body: a small trial converges with zero
// divergence, and its join-latency histogram holds one sample per member.
#include <gtest/gtest.h>

#include "exp/bench.hpp"

namespace rgb::exp {
namespace {

TEST(ScaleBench, TrialConvergesWithOneJoinSamplePerMember) {
  ScaleConfig config;
  config.tiers = 2;
  config.ring_size = 3;
  config.warmup_ticks = 4;
  config.steady_ticks = 4;
  config.members = 300;
  const ScaleStats stats = run_scale_trial(config, /*timed=*/false);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.join_divergence, 0u);
  // Every root NE applies each join; the tracer samples its first root
  // apply only, so there is exactly one sample per member.
  EXPECT_EQ(stats.join_latency.count, config.members);
}

}  // namespace
}  // namespace rgb::exp
