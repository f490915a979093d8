// The bounded ring and the (time, stripe) merge shared by both OpTracer
// record streams: overwrite-oldest with honest drop counts, and a merged
// read order of (time, stripe, record order) over wrapped and unwrapped
// stripes alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "obs/ring.hpp"
#include "sim/time.hpp"

namespace rgb::obs {
namespace {

TEST(BoundedRing, OverwritesOldestAndCountsDrops) {
  BoundedRing<std::uint64_t> ring{4, 4};
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // The four newest survive, read oldest-to-newest.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(ring[i], 6 + i);
}

/// A record that remembers where it was written.
struct Tagged {
  sim::Time at = 0;
  std::uint32_t stripe = 0;
  std::uint64_t seq = 0;  ///< record order within the stripe
};

struct TestStripe {
  BoundedRing<Tagged> ring;
};

/// Three stripes record at the same few sim times; stripe 1 wraps, so its
/// retained records sit rotated in storage. Enough records share each
/// time that an unstable sort visibly reorders them.
TEST(MergeByTime, OrdersByTimeThenStripeThenRecordOrder) {
  struct Plan {
    std::size_t capacity;
    std::vector<sim::Time> times;  ///< the time of each record, in order
  };
  const auto runs = [](std::initializer_list<std::pair<sim::Time, int>> rs) {
    std::vector<sim::Time> out;
    for (const auto& [t, n] : rs) out.insert(out.end(), n, t);
    return out;
  };
  const std::vector<Plan> plans = {
      {64, runs({{10, 20}, {20, 20}})},
      {16, runs({{10, 42}, {20, 8}})},
      {64, runs({{5, 1}, {10, 20}, {20, 20}})},
  };

  std::vector<TestStripe> stripes;
  for (std::uint32_t s = 0; s < plans.size(); ++s) {
    stripes.push_back(TestStripe{BoundedRing<Tagged>{plans[s].capacity, 0}});
    for (std::uint64_t seq = 0; seq < plans[s].times.size(); ++seq) {
      stripes.back().ring.push(Tagged{plans[s].times[seq], s, seq});
    }
  }
  ASSERT_EQ(stripes[0].ring.dropped(), 0u);
  ASSERT_EQ(stripes[1].ring.dropped(), 34u);  // keeps seq 34..49
  ASSERT_EQ(stripes[2].ring.dropped(), 0u);

  // Expected: by time, then stripe, then record order, over the retained
  // records only.
  std::vector<Tagged> expected;
  for (const sim::Time t : {5u, 10u, 20u}) {
    for (std::uint32_t s = 0; s < plans.size(); ++s) {
      const std::uint64_t first = stripes[s].ring.dropped();
      for (std::uint64_t seq = first; seq < plans[s].times.size(); ++seq) {
        if (plans[s].times[seq] == t) expected.push_back({t, s, seq});
      }
    }
  }

  const std::vector<Tagged> merged = merge_by_time(stripes, &TestStripe::ring);
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].at, expected[i].at) << "position " << i;
    EXPECT_EQ(merged[i].stripe, expected[i].stripe) << "position " << i;
    EXPECT_EQ(merged[i].seq, expected[i].seq) << "position " << i;
  }
}

}  // namespace
}  // namespace rgb::obs
