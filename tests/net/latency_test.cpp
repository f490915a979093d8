#include "net/latency.hpp"

#include <gtest/gtest.h>

namespace rgb::net {
namespace {

TEST(Latency, FixedAlwaysSame) {
  common::RngStream rng{1};
  const auto model = LatencyModel::fixed(sim::msec(3));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.sample(rng), sim::msec(3));
  }
}

TEST(Latency, UniformStaysInRange) {
  common::RngStream rng{2};
  const auto model = LatencyModel::uniform(sim::msec(1), sim::msec(5));
  for (int i = 0; i < 1000; ++i) {
    const auto d = model.sample(rng);
    EXPECT_GE(d, sim::msec(1));
    EXPECT_LE(d, sim::msec(5));
  }
}

TEST(Latency, UniformDegenerateRange) {
  common::RngStream rng{3};
  const auto model = LatencyModel::uniform(sim::msec(2), sim::msec(2));
  EXPECT_EQ(model.sample(rng), sim::msec(2));
}

TEST(Latency, UniformCoversEndpoints) {
  common::RngStream rng{4};
  const auto model = LatencyModel::uniform(0, 3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto d = model.sample(rng);
    saw_lo |= (d == 0);
    saw_hi |= (d == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Latency, ShiftedExponentialRespectsMinimum) {
  common::RngStream rng{5};
  const auto model =
      LatencyModel::shifted_exponential(sim::msec(10), sim::msec(5));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(model.sample(rng), sim::msec(10));
  }
}

TEST(Latency, ShiftedExponentialMean) {
  common::RngStream rng{6};
  const auto model =
      LatencyModel::shifted_exponential(sim::msec(10), sim::msec(20));
  double sum = 0.0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(model.sample(rng));
  }
  const double mean_ms = sum / kTrials / sim::kMillisecond;
  EXPECT_NEAR(mean_ms, 30.0, 1.0);
}

TEST(TimeHelpers, UnitConversions) {
  EXPECT_EQ(sim::usec(1500), 1500u);
  EXPECT_EQ(sim::msec(2), 2000u);
  EXPECT_EQ(sim::sec(1), 1'000'000u);
  EXPECT_DOUBLE_EQ(sim::to_ms(sim::msec(5)), 5.0);
  EXPECT_EQ(sim::from_ms(2.5), 2500u);
}

}  // namespace
}  // namespace rgb::net
