// Configuration-point coverage: aggregation disabled end-to-end, layout
// arithmetic, upward-only propagation, and the global-view rule under every
// retention mode.
#include <gtest/gtest.h>

#include <tuple>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

class ConfigTest : public RgbSystemTest {};

TEST_F(ConfigTest, AggregationDisabledStillConvergesEndToEnd) {
  RgbConfig config;
  config.aggregate_mq = false;
  auto& sys = build(2, 3, config);
  for (std::uint64_t g = 1; g <= 5; ++g) {
    sys.join(common::Guid{g}, sys.aps()[g % sys.aps().size()]);
  }
  run_all();
  EXPECT_EQ(sys.membership().size(), 5u);
  EXPECT_TRUE(sys.membership_converged());
  sys.leave(common::Guid{3});
  run_all();
  EXPECT_EQ(sys.membership().size(), 4u);
  EXPECT_TRUE(sys.membership_converged());
}

TEST_F(ConfigTest, LayoutArithmetic) {
  const HierarchyLayout a{.ring_tiers = 1, .ring_size = 7};
  EXPECT_EQ(a.ap_count(), 7u);
  EXPECT_EQ(a.ring_count(), 1u);
  EXPECT_EQ(a.ne_count(), 7u);

  const HierarchyLayout b{.ring_tiers = 4, .ring_size = 2};
  EXPECT_EQ(b.ap_count(), 16u);
  EXPECT_EQ(b.ring_count(), 15u);  // 1+2+4+8
  EXPECT_EQ(b.ne_count(), 30u);
}

TEST_F(ConfigTest, UpwardOnlyPropagationWithoutDissemination) {
  // TMS retention but no downward dissemination: top learns everything,
  // sibling AP rings stay ignorant of each other's members.
  RgbConfig config;
  config.retain_tier = 0;
  config.disseminate_down = false;
  auto& sys = build(2, 3, config);
  const auto ap_first = sys.aps().front();
  const auto ap_last = sys.aps().back();  // different AP ring
  sys.join(common::Guid{1}, ap_first);
  run_all();
  EXPECT_TRUE(sys.entity(sys.rings(0).front().front())
                  ->ring_members()
                  .contains(common::Guid{1}));
  EXPECT_FALSE(sys.entity(ap_last)->ring_members().contains(common::Guid{1}));
}

/// RgbSystem::holds_global_view decides which NEs the convergence and
/// divergence checks compare with the global view. Under IMS/BMS
/// (retain_tier > 0) no NE is meant to hold it, so a quiescent run reads
/// converged with zero divergence in every retention and dissemination
/// mode.
class GlobalViewRule
    : public RgbSystemTest,
      public ::testing::WithParamInterface<std::tuple<int, bool>> {};

TEST_P(GlobalViewRule, QuiescentRunConvergesWithZeroDivergence) {
  RgbConfig config;
  config.retain_tier = std::get<0>(GetParam());
  config.disseminate_down = std::get<1>(GetParam());
  auto& sys = build(3, 3, config);
  for (std::uint64_t g = 1; g <= 27; ++g) {
    sys.join(common::Guid{g}, sys.aps()[g % sys.aps().size()]);
  }
  run_all();
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.view_divergence(), 0u);
  EXPECT_EQ(sys.group_view_divergence(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RetentionModes, GlobalViewRule,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Bool()));

TEST_F(ConfigTest, MergeAcceptPathDirect) {
  // A leader receiving a MergeAccept from a singleton fragment absorbs it;
  // exercised here through the recover-merge flow with a very fast probe.
  RgbConfig config;
  config.retx_timeout = sim::msec(20);
  config.max_retx = 1;
  config.round_timeout = sim::msec(200);
  config.probe_period = sim::msec(50);
  auto& sys = build(1, 3, config);
  sys.start_probing();
  const auto& ring = sys.rings(0).front();
  sys.crash_ne(ring[2]);
  run_for_ms(1500);
  ASSERT_EQ(sys.entity(ring[0])->roster().size(), 2u);
  sys.recover_ne(ring[2]);
  run_for_ms(4000);
  EXPECT_GE(sys.metrics().merges.value(), 1u);
  EXPECT_EQ(sys.entity(ring[0])->roster().size(), 3u);
  EXPECT_EQ(sys.entity(ring[2])->roster().size(), 3u);
}

}  // namespace
}  // namespace rgb::core
