// The scale bench's trial body: a small trial converges with zero
// divergence, and its join-latency histogram holds one sample per member.
// Causal spans follow the trace export: a bench trial records none, a trace
// trial of the same config does.
#include <gtest/gtest.h>

#include <sstream>

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
  const ScaleStats stats = run_scale_trial(config);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.join_divergence, 0u);
  // Every root NE applies each join; the tracer samples its first root
  // apply only, so there is exactly one sample per member.
  EXPECT_EQ(stats.join_latency.count, config.members);
  EXPECT_EQ(stats.spans_recorded, 0u);

  std::ostringstream trace;
  const ScaleStats traced = run_trace_trial(config, trace);
  EXPECT_GT(traced.spans_recorded, 0u);
  EXPECT_FALSE(trace.str().empty());
  EXPECT_EQ(traced.join_events, stats.join_events);
}

}  // namespace
}  // namespace rgb::exp
